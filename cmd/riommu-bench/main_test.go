package main

import (
	"bytes"
	"testing"
)

// TestList: -list prints the registry and runs nothing.
func TestList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, errb.String())
	}
	if out.Len() == 0 {
		t.Error("-list produced no output")
	}
}
