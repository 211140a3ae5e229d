// Command use is the fixture's program: it calls lib.Used.
package main

import (
	"fmt"

	"riommu/internal/lib"
)

func main() { fmt.Println(lib.Used()) }
