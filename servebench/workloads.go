package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/query"
	"repro/internal/shard"
)

const (
	// Each workload sets up its servers at least setupRepeats times and
	// until setupBudget has passed, at most maxSetups times; setup_s is
	// the median, and the last setup serves the timed phase. A restart
	// of cold-scan takes about 15 ms and varies by half from one to the
	// next, so it needs many more repeats than a setup that analyzes.
	setupRepeats = 5
	setupBudget  = time.Second
	maxSetups    = 50
	// streamLen is the length of a pre-drawn request stream; clients
	// cycle through it.
	streamLen = 1 << 16
	// renderEvery makes one interactive request in this many a PNG.
	renderEvery      = 20
	renderW, renderH = 320, 240
	// interactiveVariants is how many distinct batches each interactive
	// key gets; many, so a key's op mix barely depends on the seed.
	interactiveVariants = 64
	readyTimeout        = 2 * time.Minute
)

// runClients runs one closed-loop client per step function until d
// has passed (a request in flight at the deadline completes) and
// returns the merged recorder.
func runClients(d time.Duration, steps ...func(*recorder)) *recorder {
	deadline := time.Now().Add(d)
	recs := make([]*recorder, len(steps))
	var wg sync.WaitGroup
	for i, step := range steps {
		recs[i] = newRecorder()
		wg.Add(1)
		go func(r *recorder) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				step(r)
			}
		}(recs[i])
	}
	wg.Wait()
	total := newRecorder()
	for _, r := range recs {
		total.merge(r)
	}
	return total
}

// uniformStream draws pool indices uniformly.
func uniformStream(rng *rand.Rand, poolLen int) []int {
	out := make([]int, streamLen)
	for i := range out {
		out[i] = rng.Intn(poolLen)
	}
	return out
}

// scanStream visits every key once per round, in a fresh random order
// each round, with a random variant of each: keys are read equally
// often, and a key recurs only after most others.
func scanStream(rng *rand.Rand, nkeys, variants int) []int {
	out := make([]int, 0, streamLen)
	for len(out) < streamLen {
		for _, k := range rng.Perm(nkeys) {
			out = append(out, k*variants+rng.Intn(variants))
		}
	}
	return out[:streamLen]
}

// setUp launches the servers with launch, waits for them and warms
// them, repeatedly (see setupRepeats); it returns the last set of
// servers and every setup's duration in seconds.
func setUp(control *http.Client, launch func() ([]*node, error), warmUp func([]*node) error) ([]*node, []float64, error) {
	var nodes []*node
	var setups []float64
	for begin := time.Now(); len(setups) < maxSetups &&
		(len(setups) < setupRepeats || time.Since(begin) < setupBudget); {
		stopAll(nodes)
		start := time.Now()
		var err error
		if nodes, err = launch(); err != nil {
			return nil, nil, err
		}
		for _, n := range nodes {
			if err := n.waitReady(control, readyTimeout); err != nil {
				return nil, nil, err
			}
		}
		if err := warmUp(nodes); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	return nodes, setups, nil
}

func logPath(cfg config, name string) string {
	dir := filepath.Join(cfg.outDir, "logs")
	os.MkdirAll(dir, 0o755)
	return filepath.Join(dir, name+".log")
}

// finish assembles a workload result: the report metrics, the common
// setup/failure/memory metrics, and the result-line metrics: setup, memory,
// and the workload's headline latency. headline maps each key of the
// headline class to its latencies. The pooled median and mean of the
// headline class and the tail percentiles stay in the report: on a
// small shared machine they move too much from run to run to gate a
// change, the pooled median because it falls between keys of unequal
// cost, the mean and the tails because a few stalled requests move them.
// A geometric mean of the key medians was no steadier either: the
// cheapest cold-scan keys take about 2 ms, and their medians vary by a
// tenth or more from run to run.
func finish(workload string, rec *recorder, nodes []*node, setups []float64, report []metric, headline map[string][]float64) (*result, error) {
	rss, err := sumPeakRSSMB(nodes)
	if err != nil {
		return nil, err
	}
	setup := metric{Name: "setup_s", Value: median(setups), Unit: "s", N: len(setups), Beyond: -1}
	mem := metric{Name: "server_rss_mb", Value: rss, Unit: "MiB", N: len(nodes), Beyond: -1}
	ratio := 0.0
	if rec.attempted > 0 {
		ratio = float64(rec.failed) / float64(rec.attempted)
	}
	var pooled []float64
	for _, xs := range headline {
		pooled = append(pooled, xs...)
	}
	p50 := percentileMetric("latency_p50_ms", pooled, 0.5)
	mean := metric{Name: "latency_mean_ms", Value: math.NaN(), Unit: "ms", N: len(pooled), Beyond: -1}
	if len(pooled) > 0 {
		sum := 0.0
		for _, x := range pooled {
			sum += x
		}
		mean.Value = sum / float64(len(pooled))
	}
	keyed := metric{Name: "key_latency_ms", Value: keyMean(headline), Unit: "ms", N: len(pooled), Beyond: -1}
	report = append([]metric{setup}, report...)
	report = append(report,
		metric{Name: "failed_ratio", Value: ratio, Unit: "ratio", N: rec.attempted, Beyond: -1},
		mem, p50, mean, keyed)
	return &result{
		Workload:   workload,
		Report:     report,
		Line:       []metric{setup, keyed, mem},
		Attempted:  rec.attempted,
		Failed:     rec.failed,
		Correct:    rec.failed == 0 && !rec.invalid && rec.attempted > 0,
		Problems:   rec.problems,
		Samples:    rec.lat,
		KeySamples: rec.byKey,
	}, nil
}

// keyMean is the mean, over keys, of each key's median latency: the
// expected latency of a read of a key picked uniformly, each key at its
// typical cost. A few stalled requests move it only through their
// keys' medians.
func keyMean(byKey map[string][]float64) float64 {
	if len(byKey) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, xs := range byKey {
		sum += median(xs)
	}
	return sum / float64(len(byKey))
}

// runInteractive: a two-node memory-store fleet. Two closed-loop
// clients send Zipf-popular hit batches (and every 20th request a
// terrain PNG) to node a, which forwards the keys b owns.
func runInteractive(cfg config) (*result, error) {
	const variants = interactiveVariants
	rng := workloadRNG(cfg.seed, "interactive")
	eng := newEngine(cfg.seed, nil, nil)
	pool, err := buildPool(eng, rng, interactiveKeys, variants, vertexPartners)
	if err != nil {
		return nil, err
	}
	var warmups []*batch
	for _, k := range interactiveKeys {
		b, err := warmBatch(eng, k, vertexPartners(k))
		if err != nil {
			return nil, err
		}
		warmups = append(warmups, b)
	}
	// The client classes each key by the ring the fleet builds.
	ring := shard.New([]string{"a", "b"}, 0)
	// Popularity ranks follow interactiveKeys' order, the same for
	// every seed: which keys are hot, and so the local/forwarded split,
	// stays put while the seed varies the batches and the datasets.
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(interactiveKeys)-1))
	stream := make([]int, streamLen)
	for i := range stream {
		if i%renderEvery == renderEvery-1 {
			stream[i] = -1
			continue
		}
		stream[i] = int(zipf.Uint64())*variants + rng.Intn(variants)
	}

	client, control := newClient(2), newClient(2)
	nodes, setups, err := setUp(control, func() ([]*node, error) {
		ports, err := freePorts(2)
		if err != nil {
			return nil, err
		}
		peers := fmt.Sprintf("a=http://127.0.0.1:%d,b=http://127.0.0.1:%d", ports[0], ports[1])
		var nodes []*node
		for i, id := range []string{"a", "b"} {
			n, err := startNode(cfg, id, ports[i], logPath(cfg, "interactive-"+id),
				"-dataset", "GrQc", "-measure", "kcore", "-shard-id", id, "-peers", peers)
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, n)
		}
		return nodes, nil
	}, func(nodes []*node) error {
		return warm(client, nodes[0].url, warmups)
	})
	if err != nil {
		return nil, err
	}
	defer stopAll(nodes)

	a := nodes[0].url
	var next atomic.Int64
	step := func(r *recorder) {
		j := stream[(next.Add(1)-1)%streamLen]
		if j < 0 {
			r.render(client, a, renderW, renderH)
			return
		}
		b := pool[j]
		class := "forward"
		if ring.Owner(b.key.ShardString()) == "a" {
			class = "local"
		}
		r.query(client, a, class, b)
	}
	rec := runClients(cfg.seconds, step, step)
	local, fwd, png := rec.lat["local"], rec.lat["forward"], rec.lat["render"]
	return finish("interactive", rec, nodes, setups, []metric{
		percentileMetric("query_p50_ms", local, 0.5),
		percentileMetric("query_p99_ms", local, 0.99),
		percentileMetric("forward_p50_ms", fwd, 0.5),
		percentileMetric("forward_p99_ms", fwd, 0.99),
		percentileMetric("render_p50_ms", png, 0.5),
		percentileMetric("render_p90_ms", png, 0.9),
	}, mergeKeys(rec.byKey["local"], rec.byKey["forward"]))
}

// runRefresh: one copy-mode disk-store node. A writer alternately
// invalidates GrQc and PPI and reads each of the dataset's 11 keys once
// (every read a full miss); a reader sends closed-loop hit batches over
// Wikivote's 8 structural keys. The headline is the fresh structural
// reads alone: a centrality read costs about ten times as much, so
// pooling the two classes would make the headline follow their mix.
func runRefresh(cfg config) (*result, error) {
	rng := workloadRNG(cfg.seed, "refresh")
	eng := newEngine(cfg.seed, nil, nil)
	const readerVariants = 8
	readerPool, err := buildPool(eng, rng, readerKeys, readerVariants, noPartners)
	if err != nil {
		return nil, err
	}
	writerPool, err := buildPool(eng, rng, refreshKeys, 1, noPartners)
	if err != nil {
		return nil, err
	}
	var readerWarm []*batch
	for i := range readerKeys {
		readerWarm = append(readerWarm, readerPool[i*readerVariants])
	}
	readerStream := uniformStream(rng, len(readerPool))
	writerRNG := rand.New(rand.NewSource(rng.Int63()))
	perDataset := len(structural) + len(centrality)

	dir := filepath.Join(cfg.outDir, "refresh-store")
	client, control := newClient(2), newClient(2)
	nodes, setups, err := setUp(control, func() ([]*node, error) {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		ports, err := freePorts(1)
		if err != nil {
			return nil, err
		}
		n, err := startNode(cfg, "refresh", ports[0], logPath(cfg, "refresh"),
			"-dataset", "Wikivote", "-measure", "kcore", "-store-dir", dir)
		if err != nil {
			return nil, err
		}
		return []*node{n}, nil
	}, func(nodes []*node) error {
		return warm(client, nodes[0].url, readerWarm)
	})
	if err != nil {
		return nil, err
	}
	defer stopAll(nodes)

	base := nodes[0].url
	readerFiles := storeFiles(dir, readerKeys)
	next := 0
	reader := func(r *recorder) {
		r.query(client, base, "reader", readerPool[readerStream[next%streamLen]])
		next++
	}
	// The writer's state is touched only by the writer's goroutine. Its
	// latencies are kept per round (GrQc, then PPI) and only complete
	// rounds count, so every run's fresh reads have the same mix of
	// datasets and measures, whichever request the deadline cuts.
	cycle, pos, order := 0, 0, []int(nil)
	var before map[query.Key]os.FileInfo
	round := newRecorder()
	writer := func(r *recorder) {
		ds := cycle % 2
		dsKeys := refreshKeys[ds*perDataset : (ds+1)*perDataset]
		if pos == 0 {
			order = writerRNG.Perm(perDataset)
			before = storeFiles(dir, dsKeys)
			r.post(client, base+"/api/v1/invalidate?dataset="+dsKeys[0].Dataset)
			pos++
			return
		}
		m := order[pos-1]
		class := "structural"
		if m >= len(structural) {
			class = "centrality"
		}
		k := dsKeys[m]
		if _, ok := round.query(client, base, class, writerPool[ds*perDataset+m]); ok &&
			!rewritten(before[k], storeFile(dir, k)) {
			round.violate(fmt.Errorf("%s: fresh read after invalidation did not write a new snapshot file", keyLabel(k)))
		}
		if pos++; pos > perDataset {
			if ds == 1 {
				r.merge(round)
				round = newRecorder()
			}
			cycle, pos = cycle+1, 0
		}
	}
	rec := runClients(cfg.seconds, writer, reader)
	round.lat, round.byKey = nil, nil // an incomplete round counts its requests, not its latencies
	rec.merge(round)
	checkUnchanged(rec, readerFiles, storeFiles(dir, readerKeys), "reader hit")
	st, ce := rec.lat["structural"], rec.lat["centrality"]
	return finish("refresh", rec, nodes, setups, []metric{
		percentileMetric("query_p50_ms", rec.lat["reader"], 0.5),
		percentileMetric("query_p99_ms", rec.lat["reader"], 0.99),
		percentileMetric("fresh_structural_p50_ms", st, 0.5),
		percentileMetric("fresh_structural_p90_ms", st, 0.9),
		percentileMetric("fresh_centrality_p50_ms", ce, 0.5),
		percentileMetric("fresh_centrality_p90_ms", ce, 0.9),
	}, rec.byKey["structural"])
}

// mergeKeys joins per-key latency maps.
func mergeKeys(ms ...map[string][]float64) map[string][]float64 {
	out := map[string][]float64{}
	for _, m := range ms {
		for k, xs := range m {
			out[k] = append(out[k], xs...)
		}
	}
	return out
}

// storeFile describes key's snapshot file in a disk-store directory,
// or is nil when there is none.
func storeFile(dir string, k query.Key) os.FileInfo {
	fi, err := os.Stat(filepath.Join(dir, query.SnapshotFileName(k)))
	if err != nil {
		return nil
	}
	return fi
}

func storeFiles(dir string, ks []query.Key) map[query.Key]os.FileInfo {
	out := make(map[query.Key]os.FileInfo, len(ks))
	for _, k := range ks {
		out[k] = storeFile(dir, k)
	}
	return out
}

// rewritten reports whether after is a snapshot file written since
// before was taken. A store writes a snapshot to a temporary file and
// renames it into place, so a rewrite changes the file's identity or
// its modification time.
func rewritten(before, after os.FileInfo) bool {
	if after == nil {
		return false
	}
	return before == nil || !os.SameFile(before, after) || !before.ModTime().Equal(after.ModTime())
}

// checkUnchanged marks rec invalid for every key whose snapshot file
// is missing or was rewritten between the two listings: a hit that
// wrote a snapshot ran an analysis instead.
func checkUnchanged(rec *recorder, before, after map[query.Key]os.FileInfo, what string) {
	for k, fi := range before {
		if fi == nil || after[k] == nil || rewritten(fi, after[k]) {
			rec.violate(fmt.Errorf("%s: %s read did not leave its snapshot file untouched", keyLabel(k), what))
		}
	}
}

// runColdScan: one mmap disk-store node restarted over a directory of
// 24 snapshots prepared in process (untimed). Two closed-loop clients
// scan the keys in shuffled rounds; with three times as many keys as
// open-snapshot slots, almost every read decodes a snapshot file.
func runColdScan(cfg config) (*result, error) {
	rng := workloadRNG(cfg.seed, "cold-scan")
	dir := filepath.Join(cfg.outDir, "cold-scan-store")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	store, err := query.NewDiskStore(dir, 0)
	if err != nil {
		return nil, err
	}
	gens, err := query.NewGenerationFile(filepath.Join(dir, "generations"))
	if err != nil {
		return nil, err
	}
	const variants = 6
	pool, err := buildPool(newEngine(cfg.seed, store, gens), rng, coldKeys, variants, noPartners)
	if err != nil {
		return nil, err
	}
	stream := scanStream(rng, len(coldKeys), variants)
	files := storeFiles(dir, coldKeys)
	var warmups []*batch
	for i := range coldKeys {
		warmups = append(warmups, pool[i*variants])
	}

	client, control := newClient(2), newClient(2)
	nodes, setups, err := setUp(control, func() ([]*node, error) {
		ports, err := freePorts(1)
		if err != nil {
			return nil, err
		}
		n, err := startNode(cfg, "cold-scan", ports[0], logPath(cfg, "cold-scan"),
			"-dataset", "GrQc", "-measure", "kcore", "-store-dir", dir, "-mmap-graphs")
		if err != nil {
			return nil, err
		}
		return []*node{n}, nil
	}, func(nodes []*node) error {
		// Set-up is restart to ready plus one read of every key. Restart
		// to ready alone takes about 12 ms, mostly process start, and its
		// median moved by more than a quarter from one set of runs to the
		// next as the host's load changed.
		return warm(client, nodes[0].url, warmups)
	})
	if err != nil {
		return nil, err
	}
	defer stopAll(nodes)

	base := nodes[0].url
	// byIndex holds each stream position's latency (NaN if it failed).
	// Only complete rounds count, so every key weighs the same in every
	// run, whichever request the deadline cuts.
	byIndex := make([]float64, streamLen)
	var next atomic.Int64
	step := func(r *recorder) {
		i := next.Add(1) - 1
		ms, ok := r.query(client, base, "cold", pool[stream[i%streamLen]])
		if !ok {
			ms = math.NaN()
		}
		if i < streamLen {
			byIndex[i] = ms
		}
	}
	rec := runClients(cfg.seconds, step, step)
	checkUnchanged(rec, files, storeFiles(dir, coldKeys), "cold")
	rounds := min(int(next.Load()), streamLen) / len(coldKeys)
	var cold []float64
	byKey := map[string][]float64{}
	for i, ms := range byIndex[:rounds*len(coldKeys)] {
		if !math.IsNaN(ms) {
			cold = append(cold, ms)
			k := keyLabel(coldKeys[stream[i]/variants])
			byKey[k] = append(byKey[k], ms)
		}
	}
	return finish("cold-scan", rec, nodes, setups, []metric{
		percentileMetric("cold_p50_ms", cold, 0.5),
		percentileMetric("cold_p99_ms", cold, 0.99),
	}, byKey)
}
