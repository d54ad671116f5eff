// Command servebench is the end-to-end serving benchmark of cmd/serve.
//
// It starts cmd/serve binaries built from the tree under test as child
// processes on loopback ports and drives one of three workloads over
// HTTP from this process (at most two connections):
//
//	interactive  two-node memory-store fleet; Zipf-popular hit batches
//	             and terrain PNGs sent to node a, which forwards the keys
//	             node b owns
//	refresh      one disk-store node; a writer invalidates GrQc / PPI and
//	             re-reads every key (full misses) while a reader sends
//	             hit batches over Wikivote
//	cold-scan    one mmap disk-store node restarted over 24 prepared
//	             snapshots, three times its open-snapshot LRU
//
// With -trace 1 it instead runs the traced pass: the same inputs are
// replayed in process through each layer's public functions, and the
// per-layer metrics are reported. -workload all runs every workload
// and then the traced pass.
//
// Every run checks answers: each response is compared with the
// results query.Engine.Resolve computes in process for the same key.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are the
// human-readable report with run metadata and sample counts. Run it
// through run.sh, which builds both binaries first.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// scale is the dataset scale every server and in-process engine uses.
const scale = 1.0

type config struct {
	root     string // repository root: the tree under test
	serveBin string // cmd/serve binary built from root
	outDir   string // scratch space for stores, logs and result files
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// metric is one reported number. Beyond is the count of samples lying
// past a percentile (-1 for non-percentiles), so a reader can see
// whether the sample supports it.
type metric struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
	Note   string  `json:"note,omitempty"`
}

// result is what one workload run or traced pass produces.
type result struct {
	Workload  string   `json:"workload"`
	Report    []metric `json:"report"`
	Line      []metric `json:"line"` // the metrics of the last output line
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	// Samples holds every latency (ms) per request class.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// KeySamples holds them per request class and key.
	KeySamples map[string]map[string][]float64 `json:"key_samples,omitempty"`
	Trace      *traceDump                      `json:"-"`
}

var workloads = map[string]func(config) (*result, error){
	"interactive": runInteractive,
	"refresh":     runRefresh,
	"cold-scan":   runColdScan,
}

var workloadOrder = []string{"interactive", "refresh", "cold-scan"}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.root, "root", ".", "repository root holding the tree under test")
	flag.StringVar(&cfg.serveBin, "serve", "", "cmd/serve binary built from -root")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/servebench", "directory for stores, server logs and result files")
	flag.StringVar(&cfg.workload, "workload", "", "interactive | refresh | cold-scan | all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the request stream and of the servers' datasets")
	flag.IntVar(&seconds, "seconds", 30, "length of the timed phase (or of the traced pass) in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = run the in-process traced pass and report per-layer metrics")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok && cfg.workload != "all" {
		fatalf("unknown -workload %q (want interactive, refresh, cold-scan or all)", cfg.workload)
	}
	if cfg.serveBin == "" || seconds < 1 || (trace != 0 && trace != 1) {
		fatalf("need -serve, -seconds >= 1 and -trace 0|1")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	go stopNodesOnSignal()

	meta := runMeta(cfg)
	mj, _ := json.Marshal(meta)
	fmt.Printf("# meta %s\n", mj)

	var results []*result
	if cfg.workload == "all" {
		for _, name := range workloadOrder {
			c := cfg
			c.workload, c.trace = name, false
			results = append(results, mustRun(c, meta))
		}
		c := cfg
		c.trace = true
		results = append(results, mustRun(c, meta))
	} else {
		results = append(results, mustRun(cfg, meta))
	}
	printFinal(cfg, results)
}

// mustRun runs one workload (or the traced pass), prints its report
// and writes its result file. A setup error ends the process with a
// non-zero status and no result line.
func mustRun(cfg config, meta map[string]any) *result {
	var res *result
	var err error
	spinBefore := hostSpinMS()
	if cfg.trace {
		res, err = runTraced(cfg)
	} else {
		res, err = workloads[cfg.workload](cfg)
	}
	stopAllNodes()
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	spinAfter := hostSpinMS()
	res.Report = append(res.Report, metric{Name: "host_spin_ms", Value: (spinBefore + spinAfter) / 2,
		Unit: "ms", N: 2, Beyond: -1, Note: fmt.Sprintf("before %.1f, after %.1f", spinBefore, spinAfter)})
	// A class with no successful request has no latency to report.
	for _, ms := range [][]metric{res.Report, res.Line} {
		for i := range ms {
			if math.IsNaN(ms[i].Value) {
				ms[i].Value, ms[i].Note = 0, "no samples"
				res.Correct = false
			}
		}
	}
	label := res.Workload
	for _, m := range res.Report {
		line := fmt.Sprintf("%-12s %-34s %14.4f %-5s n=%d", label, m.Name, m.Value, m.Unit, m.N)
		if m.Beyond >= 0 {
			line += fmt.Sprintf(" beyond=%d", m.Beyond)
		}
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	if res.Trace != nil {
		for _, s := range res.Trace.Summary {
			fmt.Printf("%-12s span %-38s count=%-6d total_ms=%.3f self_ms=%.3f\n",
				label, s.Name, s.Count, s.TotalMS, s.SelfMS)
		}
	}
	for _, p := range res.Problems {
		fmt.Printf("%-12s problem: %s\n", label, p)
	}
	writeResultFile(cfg, meta, res)
	return res
}

func writeResultFile(cfg config, meta map[string]any, res *result) {
	kind := "e2e"
	if cfg.trace {
		kind = "trace"
	}
	path := filepath.Join(cfg.outDir, "results",
		fmt.Sprintf("%s-%s-seed%d.json", res.Workload, kind, cfg.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return
	}
	data, err := json.MarshalIndent(struct {
		Meta   map[string]any `json:"meta"`
		Result *result        `json:"result"`
		Trace  *traceDump     `json:"trace,omitempty"`
	}{meta, res, res.Trace}, "", " ")
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench: writing result file:", err)
		return
	}
	fmt.Printf("# wrote %s\n", path)
}

// printFinal prints the last line: one JSON object with the result-line
// metrics. With -workload all, metric names carry a workload prefix.
func printFinal(cfg config, results []*result) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, m := range r.Line {
			name := m.Name
			if cfg.workload == "all" {
				name = r.Workload + "." + name
			}
			out.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

// runMeta describes the machine, toolchain, tree and inputs of a run.
func runMeta(cfg config) map[string]any {
	rev, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"workload":      cfg.workload,
		"trace":         cfg.trace,
		"seed":          cfg.seed,
		"scale":         scale,
		"seconds":       cfg.seconds.Seconds(),
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"goos":          runtime.GOOS,
		"goarch":        runtime.GOARCH,
		"go_version":    runtime.Version(),
		"git_revision":  rev,
		"git_modified":  modified,
		"source_sha256": sourceHash(cfg.root),
	}
}

// sourceHash fingerprints the Go sources and module files of the tree
// under test, which identifies the code where no git metadata exists.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func stopNodesOnSignal() {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	<-sigc
	stopAllNodes()
	os.Exit(1)
}

func fatalf(format string, args ...any) {
	stopAllNodes()
	fmt.Fprintf(os.Stderr, "servebench: "+format+"\n", args...)
	os.Exit(1)
}

// quantile returns the nearest-rank q-quantile of xs and the number of
// samples lying beyond it. The guide for tail percentiles is that at
// least ten samples lie beyond.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1], len(s) - rank
}

// median is the middle value (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentileMetric reports the q-quantile of a latency sample. A tail
// percentile the sample cannot support (fewer than ten samples beyond
// it) is still printed, with a note naming the highest one it does.
func percentileMetric(name string, xs []float64, q float64) metric {
	v, beyond := quantile(xs, q)
	m := metric{Name: name, Value: v, Unit: "ms", N: len(xs), Beyond: beyond}
	if q > 0.5 && beyond < 10 {
		m.Note = "fewer than 10 samples beyond; " + supportedTail(xs)
	}
	return m
}

// supportedTail names the highest whole percentile with at least ten
// samples beyond it.
func supportedTail(xs []float64) string {
	for p := 99; p > 50; p-- {
		if v, beyond := quantile(xs, float64(p)/100); beyond >= 10 {
			return fmt.Sprintf("p%d=%.4f ms", p, v)
		}
	}
	return "no tail percentile supported"
}

var spinSink uint64

// hostSpinMS times a fixed integer loop that touches no memory. It
// gauges the host, not the program: when a run's latencies rose
// together with it, the machine was slower, not the code.
func hostSpinMS() float64 {
	start := time.Now()
	x := uint64(1)
	for i := 0; i < 50_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink = x
	return float64(time.Since(start).Nanoseconds()) / 1e6
}
