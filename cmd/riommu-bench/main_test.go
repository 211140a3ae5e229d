package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestList: -list prints every experiment and runs nothing.
func TestList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, errb.String())
	}
	if out.Len() == 0 {
		t.Error("-list produced no output")
	}
}

// TestBadFlags: a bad flag value exits 2 with a named error, before any
// experiment runs or any output is written.
func TestBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"repeated id", []string{"-exp", "table3,table3"}, `experiment "table3" selected twice`},
		{"unknown id", []string{"-exp", "table3,nope"}, `unknown experiment "nope"`},
		{"unknown quality", []string{"-quality", "medium"}, `unknown quality "medium"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb); code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if out.Len() != 0 {
				t.Errorf("wrote stdout:\n%s", out.String())
			}
			if !strings.Contains(errb.String(), tc.want) {
				t.Errorf("stderr %q does not name %q", errb.String(), tc.want)
			}
		})
	}
}
