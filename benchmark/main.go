// Command benchmark measures the WindServe simulator on four named
// workloads. Each repetition runs in a fresh child process that drives
// the simulator through its public Run*From entry points with a generated
// request stream, times the call, and checks the run's correctness. An
// untraced set reports the end-to-end metrics as medians over the
// repetitions; a traced run (-trace 1) reports the per-layer split from a
// CPU and an allocation profile. See README.md.
//
// Usage:
//
//	benchmark [-workload W] [-seed S] [-reps N] [-seconds T] [-trace 0|1] [-out FILE]
//	benchmark compare A.json B.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "compare" {
		os.Exit(compareMain(args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(args, os.Stdout, os.Stderr))
}

// workDir holds the profiles of traced runs; run.sh builds into it too.
const workDir = ".bench_build"

// options are the settings of one benchmark invocation.
type options struct {
	seed    int64
	seconds int
	reps    int
	traced  bool
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all four)")
	seed := fs.Int64("seed", 42, "workload seed")
	reps := fs.Int("reps", 3, "minimum repetitions per untraced set")
	seconds := fs.Int("seconds", 0, "add repetitions while the next one is expected to end within this many seconds of the set's start")
	trace := fs.Int("trace", 0, "1: make the traced run and report per-layer metrics; 0: untraced set, end-to-end metrics")
	out := fs.String("out", "", "also write the result, with its manifest, as JSON to this file")
	child := fs.Bool("child", false, "run one repetition in this process and print it as JSON (used by the harness)")
	spawned := fs.Int64("spawned", 0, "with -child: the harness's wall clock in Unix nanoseconds when it launched the child")
	setupOnlyRun := fs.Bool("setup-only", false, "with -child: only build the system and run it on an empty stream")
	traced := fs.Bool("traced", false, "with -child: profile the measured call")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *reps < 1 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: want -reps >= 1, -seconds >= 0, -trace 0 or 1, and no positional arguments")
		fs.Usage()
		return 2
	}
	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		selected = []benchWorkload{w}
	}
	if *child {
		if len(selected) != 1 {
			fmt.Fprintln(stderr, "benchmark: -child needs -workload")
			return 2
		}
		if *spawned == 0 {
			*spawned = time.Now().UnixNano()
		}
		if err := childMain(selected[0], *seed, *spawned, *setupOnlyRun, *traced); err != nil {
			fmt.Fprintln(stderr, "benchmark child:", err)
			return 1
		}
		return 0
	}

	o := options{seed: *seed, seconds: *seconds, reps: *reps, traced: *trace == 1}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	res := result{Manifest: newManifest(o)}
	for _, w := range selected {
		ws := measure(exe, w, o)
		printSet(stdout, ws)
		res.Workloads = append(res.Workloads, ws)
	}
	if *out != "" {
		if err := writeJSONFile(*out, res); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line := res.line()
	if err := writeJSON(stdout, line); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !line.Correct {
		return 1
	}
	return 0
}

// result is everything one invocation measured, as -out writes it.
type result struct {
	Manifest  manifest      `json:"manifest"`
	Workloads []workloadSet `json:"workloads"`
}

// manifest records what produced a result.
type manifest struct {
	GitRev     string `json:"git_rev"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	MinReps    int    `json:"min_reps"`
	Traced     bool   `json:"traced"`
	Date       string `json:"date"`
}

func newManifest(o options) manifest {
	rev := "unknown"
	cmd := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40")
	// Look for a repository at the working directory only, never above it.
	if wd, err := os.Getwd(); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if b, err := cmd.Output(); err == nil {
		rev = strings.TrimSpace(string(b))
	}
	return manifest{
		GitRev: rev, GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Seconds: o.seconds, MinReps: o.reps, Traced: o.traced,
		Date: time.Now().UTC().Format(time.RFC3339),
	}
}

// workloadSet is one workload's set of repetitions (or its traced run)
// reduced to per-metric statistics.
type workloadSet struct {
	Name     string `json:"name"`
	Seed     int64  `json:"seed"`
	Requests int    `json:"requests"`
	// Runs counts the repetitions attempted; FailedRuns those that
	// crashed or broke a correctness gate.
	Runs       int `json:"runs"`
	FailedRuns int `json:"failed_runs"`
	// Samples is the number of completed requests behind the latency
	// percentiles.
	Samples      int             `json:"samples"`
	InputDigest  string          `json:"input_digest"`
	ResultDigest string          `json:"result_digest"`
	Failures     []string        `json:"failures,omitempty"`
	Metrics      map[string]stat `json:"metrics"`
}

// stat summarizes one metric over a set.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func newStat(unit string, values []float64) stat {
	q1, q3 := quartiles(values)
	return stat{Unit: unit, Median: median(values), Q1: q1, Q3: q3, Values: values}
}

// setupPasses is how many set-up-only children an untraced set starts
// after each repetition; setup_s is their median. Set-up is timed in
// children of its own, whose set-up times read lower and less scattered
// than those of the repetitions' children (1.0-1.4 ms against 1.5-1.8 ms
// on a 2-vCPU host). The first child after a repetition still reads
// higher, so each repetition is followed by three and the median sits
// with the later two. Spreading them over the set, rather than running
// them back to back, keeps one burst of host noise from moving them all.
const setupPasses = 3

// childKind is what a child process is asked to do.
type childKind int

const (
	untracedRep childKind = iota
	tracedRep
	setupPass
)

// measure runs one workload's set: untraced repetitions, each followed by
// its set-up-only passes, until the minimum count and the time budget are
// met; or, traced, one untraced and one traced repetition.
func measure(exe string, w benchWorkload, o options) workloadSet {
	ws := workloadSet{Name: w.name, Seed: o.seed, Requests: w.requests, Metrics: map[string]stat{}}
	var reps []rep
	var setups []float64
	run := func(kind childKind) bool {
		ws.Runs++
		r, err := spawn(exe, w, o, kind)
		if err != nil {
			ws.FailedRuns++
			ws.Failures = append(ws.Failures, fmt.Sprintf("run %d: %v", ws.Runs, err))
			return false
		}
		if kind == setupPass {
			setups = append(setups, r.SetupS)
		} else {
			reps = append(reps, r)
		}
		return true
	}

	if o.traced {
		if run(untracedRep) {
			run(tracedRep)
		}
	} else {
		start := time.Now()
		var slowest time.Duration
		for len(reps) < o.reps || (o.seconds > 0 && time.Since(start)+slowest <= time.Duration(o.seconds)*time.Second) {
			t := time.Now()
			if !run(untracedRep) {
				break
			}
			for i := 0; i < setupPasses && ws.FailedRuns == 0; i++ {
				run(setupPass)
			}
			slowest = max(slowest, time.Since(t))
		}
	}
	if len(reps) == 0 {
		return ws
	}

	first := reps[0]
	ws.InputDigest, ws.ResultDigest, ws.Samples = first.InputDigest, first.ResultDigest, first.Samples
	for i := range reps[1:] {
		if r := &reps[i+1]; r.InputDigest != first.InputDigest || r.ResultDigest != first.ResultDigest {
			r.Failures = append(r.Failures, fmt.Sprintf("digests input %s result %s differ from the first repetition's %s %s",
				r.InputDigest, r.ResultDigest, first.InputDigest, first.ResultDigest))
		}
	}
	if o.traced && len(reps) == 2 {
		reps[1].Failures = append(reps[1].Failures, layerMetrics(&ws, w, reps[0], reps[1], o)...)
	}
	for i, r := range reps {
		if len(r.Failures) > 0 {
			ws.FailedRuns++
		}
		for _, f := range r.Failures {
			ws.Failures = append(ws.Failures, fmt.Sprintf("repetition %d: %s", i+1, f))
		}
	}

	if !o.traced {
		for _, m := range endToEnd {
			vs := setups
			if m.value != nil {
				vs = nil
				for _, r := range reps {
					vs = append(vs, m.value(r))
				}
			}
			ws.Metrics[m.name] = newStat(m.unit, vs)
		}
	}
	return ws
}

// layerMetrics fills the per-layer metrics of a traced run from its
// untraced repetition u (counts, runtime counters) and traced
// repetition t (profile shares, Source.Next time). It returns what went
// wrong: a profile that could not be folded, or a broken trace property.
func layerMetrics(ws *workloadSet, w benchWorkload, u, t rep, o options) []string {
	vals := map[string]float64{}
	for k, v := range u.Counts {
		vals[k] = v
	}
	cpuPath, memPath := profilePaths(w.name, o.seed)
	cpu, err := profileShares(cpuPath, "", "ns")
	if err != nil {
		return []string{err.Error()}
	}
	alloc, err := profileShares(memPath, "alloc_space", "B")
	if err != nil {
		return []string{err.Error()}
	}
	var total float64
	for _, l := range layers {
		vals[l+".cpu_share"] = cpu[l]
		vals[l+".alloc_share"] = alloc[l]
		total += cpu[l]
	}
	vals["runtime.gc_share"] = cpu["runtime.gc"]
	vals["runtime.other_share"] = cpu["runtime.other"]
	total += cpu["runtime.gc"] + cpu["runtime.other"]
	vals["workload.next_s"] = t.NextS
	vals["runtime.gc_cpu_frac"] = u.GCCPUFrac
	vals["runtime.gc_cycles"] = float64(u.GCCycles)
	vals["runtime.alloc_bytes_per_req"] = float64(u.AllocBytes) / float64(u.Requests)
	vals["trace.overhead"] = t.WallS / u.WallS
	for _, m := range perLayer {
		ws.Metrics[m.name] = newStat(m.unit, []float64{vals[m.name]})
	}
	bad := w.traceProperties(vals)
	if total < 0.99 || total > 1.01 {
		bad = append(bad, fmt.Sprintf("CPU shares sum to %.4f, want 1 ± 0.01", total))
	}
	return bad
}

// profilePaths names the CPU and allocation profiles of a traced run.
func profilePaths(workload string, seed int64) (cpu, mem string) {
	base := filepath.Join(workDir, "profiles", fmt.Sprintf("%s-seed%d", workload, seed))
	return base + ".cpu.pprof", base + ".alloc.pprof"
}

// spawn runs one child process and returns its report with the child's
// peak RSS filled in.
func spawn(exe string, w benchWorkload, o options, kind childKind) (rep, error) {
	args := []string{"-child", "-workload", w.name, "-seed", fmt.Sprint(o.seed)}
	switch kind {
	case tracedRep:
		args = append(args, "-traced")
	case setupPass:
		args = append(args, "-setup-only")
	}
	args = append(args, "-spawned", fmt.Sprint(time.Now().UnixNano()))
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	// The child dies with the harness, so no repetition outlives it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return rep{}, fmt.Errorf("child %s: %w", w.name, err)
	}
	var r rep
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return rep{}, fmt.Errorf("child %s output: %w", w.name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.PeakRSSMB = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	}
	return r, nil
}

// printSet prints every metric of a set by name with its unit.
func printSet(w io.Writer, ws workloadSet) {
	fmt.Fprintf(w, "%s  seed %d  requests %d  runs %d  failed %d  input %s  result %s\n",
		ws.Name, ws.Seed, ws.Requests, ws.Runs, ws.FailedRuns, ws.InputDigest, ws.ResultDigest)
	names := make([]string, 0, len(ws.Metrics))
	for _, m := range endToEnd {
		names = append(names, m.name)
	}
	for _, m := range perLayer {
		names = append(names, m.name)
	}
	for _, n := range names {
		s, ok := ws.Metrics[n]
		if !ok {
			continue
		}
		extra := ""
		if len(s.Values) > 1 {
			extra = fmt.Sprintf("  q1 %-12.6g q3 %-12.6g n=%d", s.Q1, s.Q3, len(s.Values))
		}
		if strings.HasPrefix(n, "sim_ttft") || strings.HasPrefix(n, "sim_tpot") {
			extra += fmt.Sprintf("  (%d completed requests)", ws.Samples)
		}
		fmt.Fprintf(w, "  %-30s %-14.6g %-14s%s\n", n, s.Median, s.Unit, extra)
	}
	for _, f := range ws.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}

// summaryLine is the last line of standard output.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line reduces a result to the summary line: attempted counts the
// repetitions run, failed those that crashed or broke a gate. With more
// than one workload, metric names are prefixed "<workload>/".
func (r result) line() summaryLine {
	l := summaryLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, ws := range r.Workloads {
		l.Attempted += ws.Runs
		l.Failed += ws.FailedRuns
		if len(ws.Failures) > 0 || ws.Runs == 0 {
			l.Correct = false
		}
		for name, s := range ws.Metrics {
			if len(r.Workloads) > 1 {
				name = ws.Name + "/" + name
			}
			l.Metrics[name] = metricValue{Value: s.Median, Unit: s.Unit}
		}
	}
	if l.Failed > 0 {
		l.Correct = false
	}
	return l
}

func writeJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
