// Command barrierbench is the repository's end-to-end benchmark of the
// barrier system. It runs one workload per invocation in a single process,
// generates every input from --seed, checks every output it produces, and
// prints one JSON result object as the last line of standard output.
//
// Usage (from the repository root, normally through run.py, which builds
// this package first):
//
//	barrierbench --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics, which the benchmark measures from outside by
// timing calls into each layer's public functions. --workload all runs every
// workload in turn and exits non-zero if any of them fails a check.
//
// README.md lists the workloads, the metrics, and which end-to-end metric
// each per-layer metric should move on which workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workload is one benchmark scenario: it runs its closed loop, records the
// end-to-end metrics, and with tracing on also the per-layer metrics.
type workload struct {
	name string
	run  func(b *bench) error
}

var workloads = []workload{
	{"tune-p1024", func(b *bench) error { return runTune(b, tuneP1024) }},
	{"tune-quad-p32", func(b *bench) error { return runTune(b, tuneQuadP32) }},
	{"mesh-hybrid-p8", func(b *bench) error { return runMesh(b, meshHybridP8) }},
	{"mesh-tcp-p8-observed", func(b *bench) error { return runMesh(b, meshTCPP8Observed) }},
}

// watchdog bounds one invocation: a wedged mesh or a runaway search exits
// non-zero without printing a result.
const watchdog = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of each timed phase in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "barrierbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "barrierbench: watchdog fired after %v\n", watchdog)
		os.Exit(3)
	})

	var selected []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "barrierbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	ok := true
	for _, w := range selected {
		b := newBench(*seed, *seconds, *trace == 1)
		err := w.run(b)
		if err != nil {
			b.fail("%s: %v", w.name, err)
		}
		if !b.trace {
			b.set("max_rss_mb", "MB", maxRSSMB())
		}
		ok = b.emit(w.name) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

// bench accumulates one workload's result.
type bench struct {
	seed    uint64
	seconds float64
	trace   bool

	attempted, failed int
	metrics           map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newBench(seed uint64, seconds float64, trace bool) *bench {
	return &bench{seed: seed, seconds: seconds, trace: trace, metrics: map[string]metric{}}
}

func (b *bench) phase() time.Duration { return time.Duration(b.seconds * float64(time.Second)) }

// set records a metric; non-finite values are an output failure.
func (b *bench) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b.fail("metric %s is %v", name, v)
		v = 0
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// check counts one attempted output check and reports whether it held.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
	}
	return ok
}

// fail records an attempted operation that failed.
func (b *bench) fail(format string, args ...any) { b.check(false, format, args...) }

// emit prints the human summary and the JSON result line, and reports
// whether every check held.
func (b *bench) emit(name string) bool {
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %-36s %14.6g %s\n", name, n, b.metrics[n].Value, b.metrics[n].Unit)
	}
	frac := 0.0
	if b.attempted > 0 {
		frac = float64(b.failed) / float64(b.attempted)
	}
	fmt.Printf("%s failed_frac %g (%d of %d)\n", name, frac, b.failed, b.attempted)
	correct := b.failed == 0 && b.attempted > 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(b.attempted, 1), b.failed, b.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "barrierbench: encoding result: %v\n", err)
		return false
	}
	fmt.Println(string(line))
	return correct
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// median returns the middle value of xs (mean of the middle two); NaN for
// an empty slice. It sorts xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. It sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// tailQuantile returns the highest of p99, p90 and p50 that leaves at least
// ten samples beyond it, with its label. It sorts xs.
func tailQuantile(xs []float64) (float64, string) {
	for _, t := range []struct {
		q     float64
		minN  int // sample count that leaves ten beyond q
		label string
	}{{0.99, 1000, "p99"}, {0.9, 100, "p90"}} {
		if len(xs) >= t.minN {
			return quantile(xs, t.q), t.label
		}
	}
	return median(xs), "p50"
}

func pct(measured, reference float64) float64 { return (measured - reference) / reference * 100 }

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// minTimed is the shortest interval perCall times; faster calls are
// repeated until it is reached, so microsecond set-ups are not swamped by
// clock and scheduling noise.
const minTimed = 100 * time.Millisecond

// perCall returns the mean wall time, in seconds, of calls to f repeated
// until at least minTimed has passed (one call when it is slower).
func perCall(f func()) float64 {
	n := 0
	t0 := time.Now()
	for n == 0 || time.Since(t0) < minTimed {
		f()
		n++
	}
	return time.Since(t0).Seconds() / float64(n)
}

// cpuTime returns the processor time the process has used, all threads,
// user and system. With the guest kernel's steal-time accounting, time the
// host takes the virtual CPUs away is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuIt runs f and returns the processor time the process used meanwhile.
func cpuIt(f func()) time.Duration {
	c0 := cpuTime()
	f()
	return cpuTime() - c0
}

// timeIt runs f and returns its wall time.
func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}
