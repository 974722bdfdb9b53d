// Command benchmark is the repository's benchmark: five workloads measured
// end to end with tracing off, and a traced replay of a fixed query list
// down the layer ladder from the traversal cores to a loopback socket.
// README.md in this directory is the manual; BENCHMARK.json at the root of
// the repository names the workloads and metrics.
//
//	go run ./benchmark -seed 1                      every workload, both runs, a table
//	go run ./benchmark -workload W -trace 0|1 ...   one run, one JSON line last (the driver's form)
//	go run ./benchmark -repeat 2 -out DIR           two sets back to back and their differences
//	go run ./benchmark -compare old.json new.json   deltas against the bounds
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

const resultSchema = "streach-benchmark/v1"

func main() {
	os.Exit(realMain())
}

// fail reports err and returns the exit code of a failed run.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

func realMain() int {
	workload := flag.String("workload", "", "run only this workload and print one JSON line last")
	seed := flag.Int64("seed", 1, "seed of the query pools, request schedules and late events")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "with -workload: 0 measures end to end, 1 runs the traced layer ladder")
	out := flag.String("out", "", "directory for results.json and trace-<workload>.jsonl (default: a new temp dir)")
	compare := flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	repeat := flag.Int("repeat", 1, "run the whole set this many times back to back and print their differences")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare old.json new.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected arguments %q\n", flag.Args())
		return 2
	}
	if *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive, -repeat at least 1, -trace 0 or 1")
		return 2
	}
	// Every run is pinned to two cores: the sandbox has two, and the
	// workloads never keep more than two requests in flight.
	if runtime.NumCPU() < 2 {
		fmt.Fprintf(os.Stderr, "benchmark: needs 2 CPUs, found %d\n", runtime.NumCPU())
		return 2
	}
	runtime.GOMAXPROCS(2)
	ctx := context.Background()

	if *workload != "" {
		return runOne(ctx, *workload, *seed, *seconds, *trace == 1, *out)
	}
	dir := *out
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "streach-benchmark-"); err != nil {
			return fail(err)
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail(err)
	}
	var files []*resultFile
	code := 0
	for i := 1; i <= *repeat; i++ {
		name := "results.json"
		if *repeat > 1 {
			name = fmt.Sprintf("results-%d.json", i)
		}
		f, err := runAll(ctx, *seed, *seconds, dir, i == 1)
		if err != nil {
			return fail(err)
		}
		printTable(os.Stdout, f)
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			return fail(err)
		}
		fmt.Printf("\nwrote %s\n\n", path)
		for _, w := range f.Workloads {
			if !w.Correct {
				fmt.Printf("FAILED: %s had %d of %d operations fail\n", w.Workload, w.Failed, w.Attempted)
				code = 1
			}
			if !w.Valid {
				fmt.Printf("INVALID: on %s the load generator ran more than 2 ms late at p99\n", w.Workload)
				code = 1
			}
		}
		files = append(files, f)
	}
	if len(files) > 1 {
		if printRepeat(os.Stdout, files) {
			code = 1
		}
	}
	return code
}

// runOne is the driver's form: one workload, traced or not, and as the
// last line of standard output one JSON object with the metrics.
func runOne(ctx context.Context, name string, seed int64, seconds float64, trace bool, out string) int {
	def := findWorkload(name)
	if def == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	res, err := runWorkload(ctx, def, fullScale, seed, seconds, trace)
	if err != nil {
		return fail(err)
	}
	printTable(os.Stdout, &resultFile{Workloads: []*workloadResult{res}})
	if out != "" && trace {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return fail(err)
		}
		header := traceHeader{Env: readEnv(), Workload: name, Seed: seed}
		if err := writeSpans(filepath.Join(out, "trace-"+name+".jsonl"), header, res.spans); err != nil {
			return fail(err)
		}
	}
	metrics := res.EndToEnd
	if trace {
		metrics = res.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int64     `json:"attempted"`
		Failed    int64     `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	return 0
}

// mergeResults joins a workload's untraced and traced results.
func mergeResults(plain, traced *workloadResult) *workloadResult {
	m := *plain
	m.PerLayer = traced.PerLayer
	m.Correct = plain.Correct && traced.Correct
	m.Valid = plain.Valid && traced.Valid
	m.Attempted += traced.Attempted
	m.Failed += traced.Failed
	m.Info = map[string]float64{}
	for k, v := range traced.Info {
		m.Info[k] = v
	}
	for k, v := range plain.Info {
		m.Info[k] = v
	}
	m.spans = traced.spans
	return &m
}

// runAll measures every workload, untraced and then traced, in this one
// process, and writes the span files.
func runAll(ctx context.Context, seed int64, seconds float64, dir string, writeTraces bool) (*resultFile, error) {
	f := &resultFile{Schema: resultSchema, Env: readEnv(), Seed: seed, Seconds: seconds}
	for i := range workloads {
		def := &workloads[i]
		fmt.Fprintf(os.Stderr, "%s: measuring\n", def.name)
		plain, err := runWorkload(ctx, def, fullScale, seed, seconds, false)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%s: tracing\n", def.name)
		traced, err := runWorkload(ctx, def, fullScale, seed, seconds, true)
		if err != nil {
			return nil, err
		}
		if err := checkSpans(traced.spans); err != nil {
			return nil, fmt.Errorf("%s: %w", def.name, err)
		}
		if writeTraces {
			header := traceHeader{Env: f.Env, Workload: def.name, Seed: seed}
			if err := writeSpans(filepath.Join(dir, "trace-"+def.name+".jsonl"), header, traced.spans); err != nil {
				return nil, err
			}
		}
		f.Workloads = append(f.Workloads, mergeResults(plain, traced))
	}
	return f, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return &f, nil
}

func readEnv() envBlock {
	env := envBlock{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		env.CPU = cpuModel(f)
		f.Close()
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if env.Commit == "unknown" {
		// `go run` does not stamp the binary; ask git, if this is a checkout.
		if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			env.Commit = strings.TrimSpace(string(rev))
		}
	}
	return env
}

func cpuModel(r io.Reader) string {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}
