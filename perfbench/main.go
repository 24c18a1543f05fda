// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one named workload for a fixed time, checks every
// recovered model against the generated sets, and prints one JSON
// result line:
//
//	perfbench --workload paper-seq --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 turns on the
// backend and HTTP counting decorators, reads the nodes' /metrics, runs isolated
// passes of the single layers on the workload's own bytes, and reports
// the per-layer metrics. --steady K runs the workload K times in child
// processes (seeds seed..seed+K-1) and prints each metric's median,
// quartiles and spread. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metric is one reported measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// models scales every workload's fleet; 0 means the workload's
	// default. Tests use tiny values.
	models int
	// workDir holds the isolated passes' files; removed at the end of
	// the run.
	workDir string
	// logf receives progress lines (stderr).
	logf func(format string, args ...any)
}

// endToEndMetrics lists the end-to-end metrics with their units, in
// the order BENCHMARK.json declares them.
var endToEndMetrics = [][2]string{
	{"setup_s", "s"}, {"tts_s", "s"}, {"ttr_s", "s"}, {"partial_ms", "ms"},
	{"stored_bytes_per_param_byte", "B/B"}, {"recover_alloc_per_param_byte", "B/B"},
	{"serve_rps", "1/s"}, {"serve_p50_ms", "ms"},
}

// workloads maps each name to its runner.
var workloads = map[string]func(ctx context.Context, cfg config) (*result, error){
	"paper-seq":    func(ctx context.Context, cfg config) (*result, error) { return runSeq(ctx, cfg, false) },
	"dedup-fleet":  func(ctx context.Context, cfg config) (*result, error) { return runSeq(ctx, cfg, true) },
	"routed-serve": runServe,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload: paper-seq, dedup-fleet or routed-serve")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 = per-layer run with instrumentation")
	steady := fs.Int("steady", 0, "run the workload this many times in child processes and print spreads")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*wl]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		return 2
	}
	if *steady > 0 {
		return steadiness(*steady, args)
	}
	cfg := config{
		workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1,
		workDir: filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid())),
		logf:    func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) },
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := runWorkload(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runWorkload runs cfg.workload inside a fresh work directory and
// removes the directory afterwards.
func runWorkload(ctx context.Context, cfg config) (*result, error) {
	if err := os.RemoveAll(cfg.workDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.workDir)
	return workloads[cfg.workload](ctx, cfg)
}

// checker counts operations and their failures. An operation fails
// when it returns an error or when its output differs from what the
// generated inputs say it must be.
type checker struct {
	attempted, failed int64
	first             string
}

// op records one attempted operation; ok false counts it as failed.
func (c *checker) op(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if c.first == "" {
			c.first = fmt.Sprintf(format, args...)
		}
	}
}

// opErr records one attempted operation that failed if err != nil.
func (c *checker) opErr(err error, what string) {
	if err != nil {
		c.op(false, "%s: %v", what, err)
		return
	}
	c.op(true, "")
}

// addLoad counts every request of a load phase as an operation.
func (c *checker) addLoad(l *loadStats) {
	c.attempted += l.done
	c.failed += l.failed
	if l.firstErr != nil && c.first == "" {
		c.first = l.firstErr.Error()
	}
}

// finish builds the result line from the counts and metrics.
func (c *checker) finish(cfg config, metrics map[string]metric) *result {
	if c.first != "" {
		cfg.logf("perfbench: %d of %d operations failed; first: %s", c.failed, c.attempted, c.first)
	}
	return &result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: metrics}
}

// gcThenStart collects garbage and returns the start time of a timed
// operation, so no operation pays for its predecessor's garbage.
func gcThenStart() time.Time {
	runtime.GC()
	return time.Now()
}

// clientWorkers is the number of concurrent client goroutines: one per
// CPU, so load generation never oversubscribes the machine.
func clientWorkers() int { return runtime.NumCPU() }

// slug turns an approach name into a metric-name component.
func slug(s string) string { return strings.ToLower(s) }
