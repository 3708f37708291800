package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// The layers the profile fold charges samples to: the internal packages,
// with model and gpu folded into perf and stats into metrics. Internal
// packages outside this map go to "other"; stacks with no windserve frame
// go to runtime.gc (GC workers) or runtime.other.
var layerOf = map[string]string{
	"workload": "workload",
	"sim":      "sim",
	"engine":   "engine",
	"perf":     "perf",
	"model":    "perf",
	"gpu":      "perf",
	"sched":    "sched",
	"kvcache":  "kvcache",
	"xfer":     "xfer",
	"metrics":  "metrics",
	"stats":    "metrics",
	"serve":    "serve",
	"fleet":    "fleet",
	"shard":    "shard",
}

// layers lists the fold's layers, runtime.gc and runtime.other aside.
var layers = []string{"workload", "sim", "engine", "perf", "sched", "kvcache", "xfer",
	"metrics", "serve", "fleet", "shard", "other"}

const internalPrefix = "windserve/internal/"

// gcWorkers are the runtime entry points of background GC work.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// attribute returns the layer a stack (innermost frame first) is charged
// to: its innermost windserve/internal/<pkg> frame, so runtime frames
// such as map access, malloc and asyncPreempt count against the layer
// that called them.
func attribute(frames []string) string {
	for _, f := range frames {
		if !strings.HasPrefix(f, internalPrefix) {
			continue
		}
		pkg := f[len(internalPrefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if l, ok := layerOf[pkg]; ok {
			return l
		}
		return "other"
	}
	for _, f := range frames {
		for _, w := range gcWorkers {
			if strings.HasPrefix(f, w) {
				return "runtime.gc"
			}
		}
	}
	return "runtime.other"
}

// foldTraces reads `go tool pprof -traces` output and sums the sample
// values per layer. Values are read in the unit the output prints
// (pprof's -unit flag pins it), so only their ratios matter.
//
// Each trace follows a separator line. Its label lines come first
// ("%10s:  %s"), then its frames, innermost first, as "%10s   %s" with
// the sample value in the first frame's value column. A frame name can
// hold spaces (generic instantiations), so it is the rest of the line.
func foldTraces(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	var (
		value  float64
		frames []string
	)
	flush := func() {
		if len(frames) > 0 {
			out[attribute(frames)] += value
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		if len(line) <= 13 || line[10:13] != "   " {
			continue // header or label line
		}
		if v := strings.TrimSpace(line[:10]); v != "" {
			f, err := parseValue(v)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: %q: %w", line, err)
			}
			value = f
		}
		frames = append(frames, strings.TrimSuffix(line[13:], " (inline)"))
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseValue reads a pprof sample value, which -unit has pinned to bare
// nanoseconds or bytes ("123", "12.5ns" or "64B").
func parseValue(s string) (float64, error) {
	s = strings.TrimRight(s, "nsB")
	return strconv.ParseFloat(s, 64)
}

// profileShares folds a profile into each layer's share of its samples.
// sampleIndex picks the value ("" for a CPU profile's default,
// "alloc_space" for bytes allocated).
func profileShares(path, sampleIndex, unit string) (map[string]float64, error) {
	args := []string{"tool", "pprof", "-traces", "-symbolize=none", "-unit=" + unit}
	if sampleIndex != "" {
		args = append(args, "-sample_index="+sampleIndex)
	}
	cmd := exec.Command("go", append(args, path)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %v: %s", path, err, stderr.String())
	}
	totals, err := foldTraces(&stdout)
	if err != nil {
		return nil, err
	}
	var sum float64
	for _, v := range totals {
		sum += v
	}
	if sum == 0 {
		return nil, fmt.Errorf("profile %s has no samples", path)
	}
	for k, v := range totals {
		totals[k] = v / sum
	}
	return totals, nil
}
