package main

import (
	"strings"
	"testing"
)

func TestRunRejectsBadThreshold(t *testing.T) {
	// Negative, NaN and infinite thresholds used to run at the default 0.8
	// or fail inside the simulator; each must now fail at parse time and
	// name the flag. 0 still selects the default.
	for _, c := range []struct {
		thrd string
		code int
	}{{"-1", 2}, {"NaN", 2}, {"+Inf", 2}, {"0", 0}} {
		var stdout, stderr strings.Builder
		code := run([]string{"-n", "20", "-thrd", c.thrd}, &stdout, &stderr)
		if code != c.code {
			t.Errorf("-thrd %s: exit %d, want %d (stderr %q)", c.thrd, code, c.code, stderr.String())
		}
		if ran := strings.Contains(stdout.String(), "WindServe | OPT-13B"); ran != (c.code == 0) {
			t.Errorf("-thrd %s: ran = %v, want %v", c.thrd, ran, c.code == 0)
		}
		if c.code != 0 && !strings.Contains(stderr.String(), "-thrd") {
			t.Errorf("-thrd %s: error %q does not name the flag", c.thrd, stderr.String())
		}
	}
}
