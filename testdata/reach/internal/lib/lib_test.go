package lib

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested() != 6 {
		t.Fatal("OnlyTested")
	}
}
