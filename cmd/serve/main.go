// Command serve hosts the interactive terrain viewer: the paper's
// Section II-E user interactions — rotate, zoom, simplification, peak
// selection, and linked 2D displays — exposed over HTTP with no
// dependencies beyond the standard library.
//
// Usage:
//
//	serve -dataset GrQc -measure kcore -addr :8080
//	serve -input mygraph.txt -measure ktruss
//
// Then open http://localhost:8080/. The page renders the terrain and
// offers:
//
//	rotate / zoom        re-render with new camera parameters
//	treemap              the linked 2D view of Figure 5(a)
//	click on treemap     select a peak; a spring-layout node-link view
//	                     of the selected component appears beside it
//	                     (the "Linked-2D-Displays callback")
//	peaks / spectrum     the peaks at α and the contour spectrum B0(α),
//	                     fetched as batch-API ops on the page's key
//	measure selector     switch the page to another measure
//
// The server is a thin, stateless frontend over internal/query: every
// analysis lives in an immutable Snapshot cached per (dataset, measure,
// color, bins) key, and every viewer URL names its own key through the
// dataset, measure, color and bins parameters:
//
//	/?dataset=Astro&measure=ktruss
//
// Parameters left out take the startup key's values (-dataset or
// -input, -measure, -color, -bins), merged by the same rule the batch
// API applies. Two viewers on one server therefore never see each
// other's choices, and N concurrent requests for an uncached key run
// one analysis through one pooled scalarfield.Analyzer. The startup
// dataset registers at boot; any other Table I dataset loads on
// demand, generated at the startup -scale and -seed.
//
// POST /api/v1/query is the batched query API: a list of operations
// (alpha_cut, peaks, mcc, component_of, spectrum, lci, gci) answered
// from one consistent snapshot. See the README's "Batch query API"
// section for request/response shapes.
//
// With -store-dir, snapshots persist to disk in the wire format and a
// restarted server serves yesterday's analyses without re-running
// them. With -shard-id and -peers, the server joins a fleet: a
// consistent-hash ring over the snapshot key decides which node owns
// each analysis, batch queries for non-owned keys are forwarded to the
// owner and relayed byte-for-byte, and singleflight on the owner keeps
// the whole fleet at one analysis per key. Membership is elastic:
// -peers seeds a gossiped membership view, nodes join and leave at
// runtime, local misses hydrate from peers' snapshots, and SIGTERM
// drains gracefully (readiness flip, ownership handoff). See the
// README's "Running a shard fleet" and "Elastic fleet" sections.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	scalarfield "repro"
	"repro/internal/datasets"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/resilience"
)

func main() {
	var (
		addr    = flag.String("addr", "localhost:8080", "listen address")
		input   = flag.String("input", "", "edge list file (SNAP format); mutually exclusive with -dataset")
		dataset = flag.String("dataset", "GrQc", "synthetic Table I dataset name")
		scale   = flag.Float64("scale", 0.1, "scale factor for -dataset and on-demand datasets")
		seed    = flag.Int64("seed", 42, "generation seed")
		measure = flag.String("measure", "kcore",
			"height measure: "+strings.Join(scalarfield.Measures(), "|"))
		colorBy  = flag.String("color", "", "optional second measure for terrain color (same basis)")
		bins     = flag.Int("bins", 0, "simplification bins (0 = exact)")
		storeDir = flag.String("store-dir", "",
			"persist snapshots to this directory (served across restarts); empty = in-memory LRU")
		mmapGraphs = flag.Bool("mmap-graphs", false,
			"serve disk-store cold hits with the graph section mmap'd in place instead of copied to the heap (requires -store-dir)")
		shardID = flag.String("shard-id", "",
			"this node's name in a shard fleet; requires -peers")
		peers = flag.String("peers", "",
			"comma-separated id=url seed members, e.g. a=http://host1:8080,b=http://host2:8080; when -shard-id is among them this node is a founding member, otherwise it joins the fleet through them")
		advertise = flag.String("advertise", "",
			"base URL other fleet members reach this node at (default: this node's -peers entry, else http://<addr>)")
		forwardTimeout = flag.Duration("forward-timeout", 15*time.Minute,
			"end-to-end timeout for requests forwarded to the owning shard; generous because an owner analyzing a big dataset legitimately holds forwards for minutes")
		probeTimeout = flag.Duration("probe-timeout", 2*time.Second,
			"per-request timeout for health/membership probes of peers; short because a probe that takes longer than this is indistinguishable from a dead peer")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second,
			"graceful-drain deadline on SIGTERM/SIGINT: in-flight requests finish and owned snapshots hand off to their new owners within this budget before the process exits")
		maxAnalyses = flag.Int("max-analyses", 4,
			"admission control: concurrent analyses bound (0 = unlimited); excess flights beyond the queue are shed with 503 Retry-After")
		analysisQueue = flag.Int("analysis-queue", 16,
			"admission control: flights allowed to wait for an analysis slot before shedding starts")
		breakerThreshold = flag.Int("breaker-threshold", 3,
			"consecutive forward/probe failures that open a peer's circuit breaker")
		breakerCooldown = flag.Duration("breaker-cooldown", 2*time.Second,
			"base cooldown of an open peer breaker before a half-open probe (doubles per repeated trip)")
		probeInterval = flag.Duration("probe-interval", 5*time.Second,
			"membership-gossip probe period per peer (backs off exponentially while a peer is down)")
	)
	flag.Parse()
	srv, err := newServer(serverConfig{
		input: *input, dataset: *dataset, scale: *scale, seed: *seed,
		measure: *measure, colorBy: *colorBy, bins: *bins, storeDir: *storeDir,
		mmapGraphs:     *mmapGraphs,
		forwardTimeout: *forwardTimeout, probeTimeout: *probeTimeout,
		maxAnalyses: *maxAnalyses, analysisQueue: *analysisQueue,
		breakerThreshold: *breakerThreshold, breakerCooldown: *breakerCooldown,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	if *shardID != "" || *peers != "" {
		seeds, err := parsePeers(*peers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		if *shardID == "" {
			fmt.Fprintln(os.Stderr, "serve: -peers requires -shard-id")
			os.Exit(1)
		}
		selfURL := strings.TrimSuffix(*advertise, "/")
		if selfURL == "" {
			selfURL = seeds[*shardID]
		}
		if selfURL == "" {
			selfURL = "http://" + *addr
		}
		seedMembers := make([]fleet.Member, 0, len(seeds))
		for id, url := range seeds {
			if id == *shardID {
				url = selfURL
			}
			seedMembers = append(seedMembers, fleet.Member{ID: id, URL: url})
		}
		err = srv.startFleet(fleetConfig{
			self:      fleet.Member{ID: *shardID, URL: selfURL},
			seeds:     seedMembers,
			probeOpts: resilience.ProbeOptions{Interval: *probeInterval},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		log.Printf("fleet node %s at %s (%d seeds, probing peers every %v)",
			*shardID, selfURL, len(seedMembers), *probeInterval)
	}
	snap, err := srv.engine.Snapshot(srv.api.Defaults)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	log.Printf("terrain viewer on http://%s/ (%s, measure=%s, %d super nodes)",
		*addr, snap.Key.Dataset, snap.Key.Measure, snap.Terrain.Tree.Len())
	snap.Release()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.routes()}
	go func() {
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
		<-sigc
		log.Printf("serve: draining (deadline %v)", *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// Order matters: flip readiness and announce departure first
		// (load balancers and peers stop sending new work), hand owned
		// snapshots off, then let in-flight requests finish.
		srv.drain(ctx)
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("serve: shutdown: %v", err)
		}
	}()
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	log.Printf("serve: drained, exiting")
}

// parsePeers parses the -peers flag: comma-separated id=url entries.
func parsePeers(spec string) (map[string]string, error) {
	if spec == "" {
		return nil, fmt.Errorf("-shard-id requires -peers")
	}
	peers := make(map[string]string)
	for _, entry := range strings.Split(spec, ",") {
		id, url, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=url)", entry)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("duplicate -peers id %q", id)
		}
		peers[id] = strings.TrimSuffix(url, "/")
	}
	return peers, nil
}

// server is a thin multi-dataset frontend over the query engine. It
// holds no per-viewer state: every request names its snapshot key, and
// everything heavy (graphs, terrains, spectra, fields) lives in the
// engine's immutable, cache-coalesced snapshots. Handlers resolve
// their key to a Snapshot and read only that, so every response is
// internally consistent.
type server struct {
	engine *query.Engine
	// api serves the batch query API. Its Defaults is the startup key,
	// fixed before traffic; viewer URLs merge over it too.
	api *query.Handler

	// fleet is the membership runtime (nil when unsharded), stored
	// once by startFleet before traffic. Its ring decides each
	// batch-query key's owner, and non-owned keys are forwarded to the
	// owner's URL. Only the batch API routes; the viewer endpoints
	// always serve locally.
	fleet atomic.Pointer[fleetRuntime]

	// draining flips when a graceful drain begins: /readyz answers 503
	// so probes and load balancers steer new work away, while /healthz
	// (liveness) keeps answering 200 until the process exits.
	draining atomic.Bool

	// peerStore wraps the snapshot store with fleet hydration: local
	// misses backfill from the key's ring owner before analysis runs.
	// Always non-nil (with no fleet its Peers hook returns nothing and
	// it degenerates to the inner store).
	peerStore *query.PeerStore

	// breakers holds one circuit breaker per peer base URL, shared by
	// the forwarding path (passive outcomes) and the active health-probe
	// loops, so either signal can open a peer and either can close it.
	breakers *resilience.BreakerSet
	// forwardClient is the HTTP client for forwarded batch queries
	// (fault-injectable in tests); probeClient is a short-timeout
	// client for health/membership probes, kept separate so probe
	// traffic never consumes fault-injection schedule entries meant for
	// forwards; fetchClient performs snapshot hydration fetches and
	// handoff pushes, separate for the same reason.
	forwardClient *http.Client
	probeClient   *http.Client
	fetchClient   *http.Client

	// epochMismatches counts forwarded requests that arrived stamped
	// with a view epoch different from ours — the detector for two
	// nodes routing one key by different rings during a membership
	// transition.
	epochMismatches atomic.Int64
	// onPush and onEpochMismatch are test/metrics hooks (serverConfig).
	onPush          func(query.Key)
	onEpochMismatch func(remote, local uint64)
}

// serverConfig collects newServer's startup parameters (the flags).
type serverConfig struct {
	input    string
	dataset  string
	scale    float64
	seed     int64
	measure  string
	colorBy  string
	bins     int
	storeDir string
	// mmapGraphs enables the disk store's zero-copy cold-hit path:
	// graph sections are mmap'd and served in place.
	mmapGraphs bool
	// onAnalyze is a test/metrics hook forwarded to the engine.
	onAnalyze func(query.Key)

	// forwardTimeout bounds forwarded batch queries and snapshot
	// fetches end-to-end (0 = 15 minutes, matching the -forward-timeout
	// flag); probeTimeout bounds one health/membership probe (0 = 2s,
	// matching -probe-timeout).
	forwardTimeout time.Duration
	probeTimeout   time.Duration
	// maxAnalyses/analysisQueue configure admission control (0 max =
	// unlimited, no shedding).
	maxAnalyses   int
	analysisQueue int
	// breakerThreshold/breakerCooldown configure per-peer circuit
	// breakers (0 = resilience package defaults).
	breakerThreshold int
	breakerCooldown  time.Duration
	// store overrides the snapshot store (tests wrap a DiskStore in a
	// fault injector); when set, storeDir is ignored.
	store query.SnapshotStore
	// forwardClient overrides the forwarding HTTP client (tests inject
	// a faulty transport). The probe client is always built from
	// probeTimeout, never overridden, so probes stay deterministic.
	forwardClient *http.Client
	// onFetch/onPush/onEpochMismatch are test/metrics hooks: a snapshot
	// hydrated from a peer, a handoff push adopted, and a forwarded
	// request whose view-epoch stamp disagreed with ours.
	onFetch         func(key query.Key, peer string)
	onPush          func(query.Key)
	onEpochMismatch func(remote, local uint64)
}

// route is the query.Handler Route hook: resolve the key's owner on
// the ring; forward when it is another member.
func (s *server) route(k query.Key) (string, bool) {
	rt := s.fleetRuntime()
	if rt == nil {
		return "", false
	}
	owner, url := rt.owner(k)
	if owner == "" || owner == rt.self {
		return "", false
	}
	return url, true
}

func newServer(cfg serverConfig) (*server, error) {
	var (
		g    *graph.Graph
		name string
		err  error
	)
	if cfg.input != "" {
		f, err := os.Open(cfg.input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		g, _, err = graph.ReadEdgeList(f)
		if err != nil {
			return nil, err
		}
		name = cfg.input
	} else {
		g, err = datasets.Generate(cfg.dataset, cfg.scale, cfg.seed)
		if err != nil {
			return nil, err
		}
		name = cfg.dataset
	}

	store := cfg.store
	if store == nil && cfg.storeDir != "" {
		// Disk-backed snapshots: analyses survive restarts, at the cost
		// of an encode per insert and a decode per cold hit. In mmap
		// mode the cold-hit graph is served straight off the file.
		store, err = query.NewDiskStoreOptions(cfg.storeDir,
			query.DiskStoreOptions{MmapGraphs: cfg.mmapGraphs})
		if err != nil {
			return nil, err
		}
	}
	if store == nil {
		// Explicit rather than the engine's internal default so the
		// snapshot-exchange endpoint has a store to serve GETs from;
		// 16 matches the engine's own default bound.
		store = query.NewMemorySnapshotStore(16)
	}
	var gens query.GenerationStore
	if cfg.storeDir != "" {
		// Durable invalidation generations live beside the snapshots:
		// Snapshot.Seq equality — the fleet's analysis identity —
		// survives restarts.
		gens, err = query.NewGenerationFile(filepath.Join(cfg.storeDir, "generations"))
		if err != nil {
			return nil, err
		}
	}
	forwardTimeout := cfg.forwardTimeout
	if forwardTimeout <= 0 {
		// Finite but generous: an owner analyzing a big stand-in can
		// legitimately hold a forwarded request for minutes, but a hung
		// owner must eventually trip the local fallback instead of
		// wedging relays forever.
		forwardTimeout = 15 * time.Minute
	}
	probeTimeout := cfg.probeTimeout
	if probeTimeout <= 0 {
		probeTimeout = 2 * time.Second
	}
	forwardClient := cfg.forwardClient
	if forwardClient == nil {
		forwardClient = &http.Client{Timeout: forwardTimeout}
	}
	scale, seed := cfg.scale, cfg.seed
	s := &server{
		breakers: resilience.NewBreakerSet(resilience.BreakerConfig{
			Threshold: cfg.breakerThreshold,
			Cooldown:  cfg.breakerCooldown,
		}),
		forwardClient:   forwardClient,
		probeClient:     &http.Client{Timeout: probeTimeout},
		fetchClient:     &http.Client{Timeout: forwardTimeout},
		onPush:          cfg.onPush,
		onEpochMismatch: cfg.onEpochMismatch,
	}
	s.peerStore = &query.PeerStore{
		Inner:    store,
		Owner:    s.ringOwnerID,
		Peers:    s.peerFetchCandidates,
		Client:   s.fetchClient,
		Breakers: s.breakers,
		OnFetch:  cfg.onFetch,
	}
	s.engine = query.NewEngine(query.Options{
		Store:                 s.peerStore,
		Generations:           gens,
		OnInvalidate:          s.broadcastInvalidation,
		OnAnalyze:             cfg.onAnalyze,
		MaxConcurrentAnalyses: cfg.maxAnalyses,
		MaxAnalysisQueue:      cfg.analysisQueue,
		// Any Table I dataset the viewer asks for later is
		// generated on demand at the startup scale and seed. A
		// generation error here can only be an unknown name —
		// the client's typo, so mark it a ClientError (HTTP 400).
		Loader: func(name string) (*graph.Graph, error) {
			g, err := datasets.Generate(name, scale, seed)
			if err != nil {
				return nil, &query.ClientError{Err: err}
			}
			return g, nil
		},
	})
	// The fetch-verification hooks close over the engine, which closes
	// over the store: assign after both exist. Traffic starts later.
	s.peerStore.Generation = s.engine.DatasetGeneration
	s.engine.RegisterDataset(name, g)
	s.api = &query.Handler{
		Engine: s.engine, Route: s.route,
		// The startup key: the raw flags, so a bad -measure or a
		// cross-basis -color is a startup error below, not something to
		// silently drop.
		Defaults: query.Key{Dataset: name, Measure: cfg.measure, Color: cfg.colorBy, Bins: cfg.bins},
		Client:   s.forwardClient,
		Breakers: s.breakers,
		// Serving a marked-stale snapshot beats a 500 when a re-analysis
		// fails under load or injected faults.
		AllowStale: true,
		// Forwarded requests carry the sender's view epoch; a mismatch
		// means the fleet is mid-transition and two nodes may briefly
		// route one key differently. Detection (count + hook), not
		// rejection: the snapshot Seq guard keeps answers correct.
		ViewEpoch:       s.viewEpoch,
		OnEpochMismatch: s.noteEpochMismatch,
	}
	// Startup blocks on the startup key's analysis, so the first page
	// load is a cache hit; the analysis validates the key first.
	snap, err := s.engine.Snapshot(s.api.Defaults)
	if err != nil {
		return nil, err
	}
	snap.Release()
	return s, nil
}

func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/terrain.png", s.handleTerrain)
	mux.HandleFunc("/treemap.png", s.handleTreemap)
	mux.HandleFunc("/linked.png", s.handleLinked)
	mux.HandleFunc("/select", s.handleSelect)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/api/v1/fleet/view", s.handleFleetView)
	mux.HandleFunc("/api/v1/fleet/join", s.handleFleetJoin)
	mux.HandleFunc("/api/v1/fleet/gossip", s.handleFleetGossip)
	mux.Handle("/api/v1/invalidate", &query.InvalidationHandler{Engine: s.engine})
	mux.Handle("/api/v1/snapshot/", &query.SnapshotHandler{
		Engine: s.engine,
		// LocalGet, not Get: answering a peer's fetch must never fan
		// out into fetching.
		Local:  s.peerStore.LocalGet,
		OnPush: s.handleSnapshotPush,
	})
	mux.Handle("/api/v1/query", s.api)
	return mux
}

// handleSnapshotPush is the OnPush hook of the snapshot-exchange
// endpoint: a handoff push was verified and adopted.
func (s *server) handleSnapshotPush(key query.Key) {
	if s.onPush != nil {
		s.onPush(key)
	}
}

// viewEpoch reports the membership view epoch stamped onto forwarded
// requests; 0 on an unsharded node.
func (s *server) viewEpoch() uint64 {
	if rt := s.fleetRuntime(); rt != nil {
		return rt.manager.Epoch()
	}
	return 0
}

// noteEpochMismatch records a forwarded request whose view-epoch stamp
// disagreed with ours.
func (s *server) noteEpochMismatch(remote, local uint64) {
	s.epochMismatches.Add(1)
	if s.onEpochMismatch != nil {
		s.onEpochMismatch(remote, local)
	}
}

// handleReadyz answers readiness probes: 503 once a drain begins, 200
// otherwise. Distinct from /healthz (liveness + identity): a draining
// node is alive — it still answers fleet gossip and snapshot fetches
// while its keys hand off — but must stop receiving new work.
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, struct {
		Status string `json:"status"`
	}{Status: "ready"})
}

// handleHealthz is the liveness endpoint (human curiosity included):
// 200 with this node's shard identity and its view of every peer
// breaker, for as long as the process runs — even mid-drain, when
// /readyz already answers 503. The handler deliberately touches no
// engine state — a node drowning in analyses is still "up" for routing
// purposes; admission control sheds load, the breaker layer handles
// nodes that stop answering at all.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	self := ""
	if rt := s.fleetRuntime(); rt != nil {
		self = rt.self
	}
	writeJSON(w, struct {
		Status string                             `json:"status"`
		Shard  string                             `json:"shard,omitempty"`
		Peers  map[string]resilience.BreakerState `json:"peers,omitempty"`
	}{Status: "ok", Shard: self, Peers: s.breakers.States()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		log.Printf("encoding response: %v", err)
	}
}
