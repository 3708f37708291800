package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsBadArguments: a negative size is an error naming its
// flag, not a silent fallback to the default, and every exhibit name is
// checked before the first exhibit runs (a flag after an exhibit name is
// an unknown exhibit, so nothing may have printed).
func TestRunRejectsBadArguments(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		err  string // substring of stderr; "" for a clean run
		out  string // substring of stdout; "" means stdout must be empty
	}{
		{[]string{"-n", "-5", "ext-scenarios"}, 2, "-n must be >= 0", ""},
		{[]string{"-n", "-1", "ext-fleet-scale"}, 2, "-n must be >= 0", ""},
		{[]string{"-fleet", "-3", "ext-fleet-chaos"}, 2, "-fleet must be >= 0", ""},
		{[]string{"-parallel", "-1", "table1"}, 2, "-parallel must be >= 0", ""},
		{[]string{"-shards", "-1", "table1", "ext-fleet-chaos"}, 2, "-shards must be >= 0", ""},
		{[]string{"-stream", "-maxrecords", "-3", "table1"}, 2, "-maxrecords must be >= 0", ""},
		{[]string{"fig3", "-n", "100"}, 2, `unknown exhibit "-n"`, ""},
		{[]string{"table1", "nosuch"}, 2, `unknown exhibit "nosuch"`, ""},
		{[]string{"table1"}, 0, "", "==== table1 ===="},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code {
			t.Errorf("%q: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
		}
		if tc.err != "" && !strings.Contains(stderr.String(), tc.err) {
			t.Errorf("%q: stderr %q, want it to contain %q", tc.args, stderr.String(), tc.err)
		}
		if tc.out == "" && stdout.Len() > 0 {
			t.Errorf("%q: ran work before rejecting its arguments: %q", tc.args, stdout.String())
		}
		if tc.out != "" && !strings.Contains(stdout.String(), tc.out) {
			t.Errorf("%q: stdout %q, want it to contain %q", tc.args, stdout.String(), tc.out)
		}
	}
}
