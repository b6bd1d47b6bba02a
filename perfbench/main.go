// Command perfbench is the repository benchmark: it drives the real linmond
// and linverify binaries from one load-generator process, checks every verdict
// against an in-process reference monitor, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics of a traced run) as one JSON line.
//
// Run it through run.sh from the repository root, which builds the binaries
// first:
//
//	bash perfbench/run.sh --workload wire-firehose --seed 1 --seconds 30 --trace 0
//
// Workloads (BENCHMARK.json says why each was chosen):
//
//   - wire-firehose: closed loop, two sessions of counter objects at the
//     granted credit window against linmond with default flags;
//   - durable-paced: closed loop against linmond -state-dir, a
//     never-quiescent queue session and a set session; its traced run adds
//     an open loop at a fixed offered rate;
//   - offline-stream: linverify -stream on a large register envelope.
//
// Every run also verifies the committed etcd register trace and requires
// NOT linearizable. A record of the run — seeds, offered rate, host, failure
// causes, and for traced runs the per-layer self times — is written under
// -out/results, next to the traced run's spans.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

type binaries struct{ linmond, linverify string }

func main() {
	os.Exit(run())
}

func run() int {
	wl := flag.String("workload", "", "wire-firehose, durable-paced or offline-stream")
	seed := flag.Int64("seed", 1, "input seed")
	secs := flag.Int("seconds", 30, "measured seconds")
	traced := flag.Int("trace", 0, "1 for the traced per-layer run")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the linmond and linverify binaries")
	out := flag.String("out", ".bench_build", "directory for generated inputs, state and results")
	repo := flag.String("repo", ".", "repository root (for the committed trace corpus)")
	flag.Parse()
	if *secs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	bins := binaries{filepath.Join(*bin, "linmond"), filepath.Join(*bin, "linverify")}
	dir := filepath.Join(*out, fmt.Sprintf("run-%s-%d-%d", *wl, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	o := newOutcome()
	tag := fmt.Sprintf("%s-seed%d-trace%d", *wl, *seed, *traced)
	if err := measure(bins, *wl, *seed, time.Duration(*secs)*time.Second, *traced == 1, dir, *repo, filepath.Join(*out, "results", tag), o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: INCORRECT:", p)
	}
	if err := writeRecord(filepath.Join(*out, "results", tag+".json"), *wl, *seed, *secs, *traced, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(o.metrics))
	for name := range o.metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		m := o.metrics[name]
		fmt.Printf("%-44s %14.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("batches attempted %d, failed %d %v\n", o.attempted, o.failed, o.causes)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(o.problems) == 0, max(o.attempted, 1), o.failed, o.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// measure builds the workload's inputs and runs it, untraced or traced.
func measure(bins binaries, wl string, seed int64, d time.Duration, traced bool, dir, repo, results string, o *outcome) error {
	for _, b := range []string{bins.linmond, bins.linverify} {
		if _, err := os.Stat(b); err != nil {
			return fmt.Errorf("binary missing (run through run.sh): %w", err)
		}
	}
	checkCorpus(bins, repo, o)
	w, err := buildWorkload(wl, seed, dir)
	if err != nil {
		return err
	}
	o.notes["traced_offered_events_per_s"] = w.paced
	o.notes["object_seeds"] = w.seeds
	if err := os.MkdirAll(filepath.Dir(results), 0o755); err != nil {
		return err
	}
	switch {
	case traced:
		return runTraced(bins, w, d, o, results+"-spans.jsonl")
	case w.offline:
		return runOffline(bins, w, d, o)
	default:
		return runLinmond(bins, w, d, o)
	}
}

// writeRecord writes the reproducibility record of one run.
func writeRecord(path, wl string, seed int64, secs, traced int, o *outcome) error {
	goVersion := runtime.Version()
	rec := map[string]any{
		"workload": wl, "seed": seed, "seconds": secs, "trace": traced,
		"time": time.Now().UTC().Format(time.RFC3339),
		"host": map[string]any{
			"goos": runtime.GOOS, "goarch": runtime.GOARCH, "cpus": runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0), "go_version": goVersion,
		},
		"attempted": o.attempted, "failed": o.failed, "failed_by_cause": o.causes,
		"problems": o.problems, "metrics": o.metrics, "notes": o.notes,
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
