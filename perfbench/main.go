// Command perfbench is the repository benchmark: it runs one named
// workload against the streamdag engine from a seed, checks every
// session's output, and prints the end-to-end metrics (--trace 0) or the
// per-layer ledger (--trace 1) as the last line of standard output.
//
// Run it through perfbench/run.sh from the repository root:
//
//	bash perfbench/run.sh --workload hotpath --seed 1 --seconds 15 --trace 0
//
// The metric names and units are declared in BENCHMARK.json, which the
// program reads to check that it prints exactly those.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// declaredMetric is a metric entry of BENCHMARK.json.
type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

// runLimit bounds a whole run, set-up included; a run that exceeds it is
// stuck and exits non-zero instead of hanging.
const runLimit = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload to run: hotpath, filtered or serve-tcp")
	seed := flag.Uint64("seed", 1, "seed for filters and payloads")
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace %d must be 0 or 1\n", *trace)
		os.Exit(1)
	}
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool) error {
	sp, ok := specs[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d must be positive", seconds)
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("read metric declarations: %w", err)
	}
	var decl benchmarkFile
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	stuck := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(2)
	})
	defer stuck.Stop()

	b := newBench(sp, seed, time.Duration(seconds)*time.Second)
	var res *result
	var details map[string]any
	if traced {
		res, details, err = b.runTraced()
	} else {
		res, details, err = b.runPlain()
	}
	if err != nil {
		return err
	}
	want := decl.EndToEnd
	if traced {
		want = decl.PerLayer
	}
	if err := checkMetrics(want, res.Metrics); err != nil {
		return err
	}
	record := map[string]any{
		"workload":    name,
		"seed":        seed,
		"seconds":     seconds,
		"trace":       traced,
		"fingerprint": fingerprint(),
		"details":     details,
	}
	line, err := json.Marshal(record)
	if err != nil {
		return err
	}
	fmt.Printf("record %s\n", line)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return errors.New("wrong output: see the session errors above")
	}
	return nil
}

// writeSpans writes a traced run's spans under the build output
// directory of the checkout and returns the file's path.
func writeSpans(name string, seed uint64, spans []span) (string, error) {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	return path, writeTrace(path, spans)
}

// fingerprint identifies the machine and build a record was made on.
func fingerprint() map[string]any {
	return map[string]any{
		"cpu_model":  cpuModel(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"git_commit": gitCommit(),
	}
}
