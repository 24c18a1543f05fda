package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/mmm-go/mmm/internal/cluster"
	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/nn"
	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/server"
	"github.com/mmm-go/mmm/internal/storage/cache"
	"github.com/mmm-go/mmm/internal/workload"
)

// Scale of routed-serve.
const (
	serveNodes    = 3
	serveReplicas = 2
	// serveChains base sets are saved with their U3 chains.
	serveChains = 4
	// serveModels is the size of every set.
	serveModels = 100
	// serveOpenRate is the open-loop rate of routed single-model
	// recoveries: about half the ~340 requests per second the closed
	// loop's mix completes (see README.md).
	serveOpenRate = 170.0
	// probeShare of --seconds goes to the serial probe phase; the
	// closed and the open loop split the rest.
	probeShare = 0.3
)

// node is one in-process mmserve node on loopback.
type node struct {
	name  string
	url   string
	store *storeSet
	hs    *http.Server
	cli   *server.Client
}

// serveBench is one run of routed-serve.
type serveBench struct {
	cfg    config
	tr     *tracer
	wire   wire
	chk    checker
	nodes  []*node
	rt     *cluster.Router
	rtHS   *http.Server
	client *server.Client
	httpc  *http.Client
	// serving counts the http.Server goroutines; stop waits for them.
	serving sync.WaitGroup

	// truth maps every saved set ID to its generated state; holders to
	// the nodes that store it.
	truth   map[string]*core.ModelSet
	ids     []string // base and chain sets, in save order
	heads   []string // the U3-3 set of each chain
	holders map[string][]*node

	// chainFleet is the first chain, whose bytes the isolated passes
	// use.
	chainFleet *fleet
	// cacheBytes is each node's chunk-cache budget: the parameter bytes
	// of one set. A node stores about 2.7 chains of four sets, so the
	// cache holds the hottest set's chunks and the tail misses.
	cacheBytes int64

	mu      sync.Mutex
	derived []derivedSet
	saves   int
}

// derivedSet is a U3 set saved during the closed loop: its parent's
// state with the changed models replaced.
type derivedSet struct {
	id      string
	parent  *core.ModelSet
	changed map[int]*nn.Model
}

func (s *serveBench) models() int {
	if s.cfg.models > 0 {
		return s.cfg.models
	}
	return serveModels
}

// runServe runs routed-serve.
func runServe(ctx context.Context, cfg config) (*result, error) {
	s := &serveBench{cfg: cfg}
	if cfg.trace {
		s.tr = &tracer{}
	}
	var inner http.RoundTripper = &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}
	if cfg.trace {
		inner = &countingTransport{inner: inner, w: &s.wire}
	}
	s.httpc = &http.Client{Transport: inner}
	defer s.stop()

	// Set-up, several times: each round generates the chains, starts a
	// fresh cluster and saves through the router; only the last
	// cluster stays up.
	var setups []float64
	for r := 0; r < setupRounds; r++ {
		s.stop()
		start := gcThenStart()
		if err := s.setup(ctx); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	stored, err := s.checkPlacement(ctx)
	if err != nil {
		return nil, err
	}
	var paramBytes int64
	for _, id := range s.ids {
		set := s.truth[id]
		paramBytes += int64(set.Arch.ParamBytes() * set.Len())
	}
	cfg.logf("perfbench: routed-serve %d sets x %d models, setup %.2fs (median of %d), %.1f MB stored on %d nodes, cache %.1f MB each",
		len(s.ids), s.models(), median(setups), len(setups), float64(stored)/1e6, serveNodes, float64(s.cacheBytes)/1e6)

	pr, err := s.probe(ctx, time.Duration(cfg.seconds*probeShare*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	before, err := s.cacheCounts(ctx)
	if err != nil {
		return nil, err
	}
	loadD := time.Duration(cfg.seconds * (1 - probeShare) / 2 * float64(time.Second))
	sv := runServePhases(ctx, &s.chk, cfg, loadD, serveOpenRate, s.mixOp(), s.singleOp())
	closed, open := sv.closed, sv.open
	after, err := s.cacheCounts(ctx)
	if err != nil {
		return nil, err
	}
	if err := s.verifyDerived(ctx); err != nil {
		return nil, err
	}

	m := map[string]metric{
		"setup_s":                      {median(setups), "s"},
		"tts_s":                        {median(pr.save), "s"},
		"ttr_s":                        {median(pr.full), "s"},
		"partial_ms":                   {median(pr.routed), "ms"},
		"stored_bytes_per_param_byte":  {float64(stored) / float64(paramBytes), "B/B"},
		"recover_alloc_per_param_byte": {ratio(float64(pr.alloc), float64(pr.returned)), "B/B"},
		"serve_rps":                    {closed.rps(), "1/s"},
		"serve_p50_ms":                 {open.latency(50), "ms"},
	}
	if cfg.trace {
		lm := zeroLayerMetrics()
		for k, v := range m {
			lm["traced."+k] = v
		}
		lm["traced.serve_p90_ms"] = metric{open.latency(90), "ms"}
		s.layerMetrics(lm, pr, before, after, float64(closed.done+open.done), paramBytes)
		if err := isolatedPasses(s.chainFleet, cfg.workDir, s.nodes[0].store.docs, lm); err != nil {
			return nil, err
		}
		m = lm
	}
	return s.chk.finish(cfg, m), nil
}

// setup generates the chains, starts the nodes and the router, and
// saves every set through the router.
func (s *serveBench) setup(ctx context.Context) error {
	s.truth = map[string]*core.ModelSet{}
	s.ids, s.heads, s.derived, s.saves = nil, nil, nil, 0
	var chains []*fleet
	for c := 0; c < serveChains; c++ {
		fl, err := makeFleet(fleetSpec{models: s.models(), seed: s.cfg.seed*1000 + uint64(c), mode: workload.ModePerturb})
		if err != nil {
			return err
		}
		chains = append(chains, fl)
	}
	s.chainFleet = chains[0]
	s.cacheBytes = chains[0].paramBytes()

	s.rt = cluster.NewRouter(obs.New(), cluster.RouterConfig{Replicas: serveReplicas})
	for i := 0; i < serveNodes; i++ {
		n := &node{name: fmt.Sprintf("node-%c", 'a'+i), store: openStores(nil, s.tr)}
		api := server.NewWithConfig(n.store.stores, obs.New(), server.Config{Dedup: true, CacheBytes: s.cacheBytes})
		var err error
		if n.url, n.hs, err = s.listen(api); err != nil {
			return err
		}
		n.cli = &server.Client{BaseURL: n.url, HTTP: s.httpc}
		s.nodes = append(s.nodes, n)
		if err := s.rt.AddMember(n.name, n.url); err != nil {
			return err
		}
	}
	if _, err := s.rt.CheckMembers(ctx); err != nil {
		return err
	}
	url, hs, err := s.listen(s.rt)
	if err != nil {
		return err
	}
	s.rtHS = hs
	s.client = &server.Client{BaseURL: url, HTTP: s.httpc}

	for c, fl := range chains {
		base := ""
		for uc, set := range fl.states {
			id := fmt.Sprintf("c%d-u%d", c, uc)
			_, err := s.client.SaveAs(ctx, "baseline", id, id, set, base, nil, nil)
			s.chk.opErr(err, "routed save of "+id)
			if err != nil {
				return err
			}
			s.truth[id] = set
			s.ids = append(s.ids, id)
			base = id
		}
		s.heads = append(s.heads, base)
	}
	return nil
}

// listen serves h on a fresh loopback port until stop.
func (s *serveBench) listen(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		hs.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	return "http://" + ln.Addr().String(), hs, nil
}

// stop shuts the router and the nodes down.
func (s *serveBench) stop() {
	if s.rtHS != nil {
		s.rtHS.Close()
		s.rtHS = nil
	}
	for _, n := range s.nodes {
		n.hs.Close()
	}
	s.nodes = nil
	s.httpc.CloseIdleConnections()
	s.serving.Wait()
}

// checkPlacement checks that every set is stored on exactly R nodes,
// records its holders, and returns the bytes stored on all nodes.
func (s *serveBench) checkPlacement(ctx context.Context) (int64, error) {
	s.holders = map[string][]*node{}
	var stored int64
	for _, n := range s.nodes {
		ids, err := n.cli.List(ctx, "baseline")
		if err != nil {
			return 0, err
		}
		for _, id := range ids {
			s.holders[id] = append(s.holders[id], n)
		}
		b, err := n.store.storedBytes()
		if err != nil {
			return 0, err
		}
		stored += b
	}
	for _, id := range s.ids {
		s.chk.op(len(s.holders[id]) == serveReplicas, "set %s is on %d nodes, want %d", id, len(s.holders[id]), serveReplicas)
	}
	return stored, nil
}

// checkModels compares recovered models with the generated ones.
func checkModels(got *core.PartialRecovery, want func(int) *nn.Model, idx []int) error {
	for _, i := range idx {
		m := got.Models[i]
		if m == nil || !m.ParamsEqual(want(i)) {
			return fmt.Errorf("model %d differs from the generated set", i)
		}
	}
	return nil
}

// single recovers one Zipf-chosen model of a Zipf-chosen set via cli.
func (s *serveBench) single(ctx context.Context, cli *server.Client, id string, idx int) error {
	got, err := cli.RecoverModels(ctx, "baseline", id, []int{idx})
	if err != nil {
		return err
	}
	return checkModels(got, func(i int) *nn.Model { return s.truth[id].Models[i] }, []int{idx})
}

// full recovers a whole set through the router and checks it.
func (s *serveBench) full(ctx context.Context, id string) (*core.ModelSet, error) {
	got, err := s.client.Recover(ctx, "baseline", id)
	if err != nil {
		return nil, err
	}
	if !got.Equal(s.truth[id]) {
		return nil, fmt.Errorf("recovered set %s differs from the generated set", id)
	}
	return got, nil
}

// deriveSave saves a U3 update of a chain head through the router:
// 10% of its models perturbed.
func (s *serveBench) deriveSave(ctx context.Context, rng *rand.Rand) error {
	s.mu.Lock()
	s.saves++
	id := fmt.Sprintf("d%d", s.saves)
	s.mu.Unlock()
	parentID := s.heads[rng.Intn(len(s.heads))]
	parent := s.truth[parentID]
	set := &core.ModelSet{Arch: parent.Arch, Models: append([]*nn.Model(nil), parent.Models...)}
	changed := map[int]*nn.Model{}
	for k := 0; k < parent.Len()/10; k++ {
		i := rng.Intn(parent.Len())
		m := set.Models[i].Clone()
		for _, p := range m.Params() {
			for j := range p.Tensor.Data {
				p.Tensor.Data[j] += float32(rng.NormFloat64()) * 0.01
			}
		}
		set.Models[i], changed[i] = m, m
	}
	if _, err := s.client.SaveAs(ctx, "baseline", id, id, set, parentID, nil, nil); err != nil {
		return err
	}
	s.mu.Lock()
	s.derived = append(s.derived, derivedSet{id: id, parent: parent, changed: changed})
	s.mu.Unlock()
	return nil
}

// verifyDerived recovers every changed model and one unchanged model of
// each derived set through the router and compares them.
func (s *serveBench) verifyDerived(ctx context.Context) error {
	for _, d := range s.derived {
		idx := []int{}
		for i := range d.changed {
			idx = append(idx, i)
		}
		for i := 0; i < d.parent.Len(); i++ {
			if d.changed[i] == nil {
				idx = append(idx, i)
				break
			}
		}
		got, err := s.client.RecoverModels(ctx, "baseline", d.id, idx)
		if err == nil {
			err = checkModels(got, func(i int) *nn.Model {
				if m := d.changed[i]; m != nil {
					return m
				}
				return d.parent.Models[i]
			}, idx)
		}
		s.chk.opErr(err, "recovery of derived set "+d.id)
	}
	return ctx.Err()
}

// zipfSet draws a set ID with a Zipf skew over the saved sets.
func (s *serveBench) zipfSet(rng *rand.Rand) string { return s.ids[zipfIndex(rng, len(s.ids))] }

// singleOp is the open loop's request: one routed single-model
// recovery.
func (s *serveBench) singleOp() loadOp {
	return func(ctx context.Context, rng *rand.Rand) error {
		return s.single(ctx, s.client, s.zipfSet(rng), zipfIndex(rng, s.models()))
	}
}

// mixOp is the closed loop's request mix, in a fixed cycle of 20:
// 17 single-model recoveries, 2 full-set recoveries, 1 derived save.
func (s *serveBench) mixOp() loadOp {
	var mu sync.Mutex
	i := 0
	return func(ctx context.Context, rng *rand.Rand) error {
		mu.Lock()
		k := i % 20
		i++
		mu.Unlock()
		switch k {
		case 0:
			return s.deriveSave(ctx, rng)
		case 7, 14:
			_, err := s.full(ctx, s.zipfSet(rng))
			return err
		}
		return s.single(ctx, s.client, s.zipfSet(rng), zipfIndex(rng, s.models()))
	}
}

// probeStats are the serial probe phase's samples.
type probeStats struct {
	routed, direct  []float64 // single-model recoveries, ms
	full, save      []float64 // s
	alloc, returned uint64
	// layer counts of the first probeCounted rounds
	saveCounts, recoverCounts, partialCounts pair
	saveTime, recoverTime                    time.Duration
	requests, wireBytes                      int64
	modeledTTS, modeledTTR                   time.Duration
	offered                                  int
}

// probeCounted is the number of probe rounds whose layer counts are
// reported; they are the same for the same seed. probeSingles is the
// number of routed and of direct single-model recoveries per round.
const (
	probeCounted = 4
	probeSingles = 4
)

// probe runs serial rounds for d: a routed and a direct single-model
// recovery of the same model, a routed full recovery, and a routed
// derived save, each timed alone after a collection.
func (s *serveBench) probe(ctx context.Context, d time.Duration) (*probeStats, error) {
	ps := &probeStats{}
	rng := rand.New(rand.NewSource(int64(s.cfg.seed) * 31))
	start := time.Now()
	for r := 0; r < probeCounted || time.Since(start) < d; r++ {
		counted := r < probeCounted
		id := s.ids[r%len(s.ids)]

		for k := 0; k < probeSingles; k++ {
			id, idx := s.ids[(r*probeSingles+k)%len(s.ids)], rng.Intn(s.models())
			b, w := s.tr.both(), s.wireSnap()
			t := gcThenStart()
			err := s.single(ctx, s.client, id, idx)
			el := time.Since(t)
			s.chk.opErr(err, "routed single-model recovery")
			ps.routed = append(ps.routed, float64(el)/1e6)
			if counted {
				ps.partialCounts = ps.partialCounts.add(s.tr.both().sub(b))
				w2 := s.wireSnap()
				ps.requests += w2[0] - w[0]
				ps.wireBytes += w2[1] - w[1]
			}

			t = gcThenStart()
			err = s.single(ctx, s.holders[id][0].cli, id, idx)
			el = time.Since(t)
			s.chk.opErr(err, "direct single-model recovery")
			ps.direct = append(ps.direct, float64(el)/1e6)
		}

		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		b, clk := s.tr.both(), s.clocks()
		t := time.Now()
		got, err := s.full(ctx, id)
		el := time.Since(t)
		runtime.ReadMemStats(&m1)
		s.chk.opErr(err, "routed full recovery")
		ps.full = append(ps.full, el.Seconds())
		if err == nil {
			ps.alloc += m1.TotalAlloc - m0.TotalAlloc
			ps.returned += uint64(got.Arch.ParamBytes() * got.Len())
		}
		if counted {
			ps.recoverCounts = ps.recoverCounts.add(s.tr.both().sub(b))
			ps.recoverTime += el
			ps.modeledTTR += s.clocks() - clk
		}

		b, clk = s.tr.both(), s.clocks()
		t = gcThenStart()
		err = s.deriveSave(ctx, rng)
		el = time.Since(t)
		s.chk.opErr(err, "routed derived save")
		ps.save = append(ps.save, el.Seconds())
		if counted {
			ps.saveCounts = ps.saveCounts.add(s.tr.both().sub(b))
			ps.saveTime += el
			ps.modeledTTS += s.clocks() - clk
			if err == nil && s.tr != nil {
				last := s.derived[len(s.derived)-1].id
				for _, n := range s.nodes {
					k, err := recipeChunks(n.store.stores, "baseline/"+last+"/")
					if err != nil {
						return nil, err
					}
					ps.offered += k
				}
			}
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return ps, nil
}

func (s *serveBench) wireSnap() [2]int64 {
	return [2]int64{s.wire.requests.Load(), s.wire.bytes.Load()}
}

// clocks sums the nodes' modeled M1 store time.
func (s *serveBench) clocks() time.Duration {
	var t time.Duration
	for _, n := range s.nodes {
		t += n.store.clock.Elapsed()
	}
	return t
}

// cacheCounts sums the chunk-cache hit, miss and eviction counters
// read from every node's /metrics.
func (s *serveBench) cacheCounts(ctx context.Context) ([3]int64, error) {
	var out [3]int64
	for _, n := range s.nodes {
		text, err := n.cli.Metrics(ctx)
		if err != nil {
			return out, err
		}
		sc := bufio.NewScanner(strings.NewReader(text))
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) != 2 {
				continue
			}
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				continue
			}
			switch f[0] {
			case cache.MetricHits:
				out[0] += int64(v)
			case cache.MetricMisses:
				out[1] += int64(v)
			case cache.MetricEvictions:
				out[2] += int64(v)
			}
		}
	}
	if out[0]+out[1] == 0 {
		return out, errors.New("no chunk-cache lookups on /metrics")
	}
	return out, nil
}

// layerMetrics fills the per-layer metrics of routed-serve.
func (s *serveBench) layerMetrics(m map[string]metric, ps *probeStats, before, after [3]int64, requests float64, paramBytes int64) {
	n := float64(probeCounted)
	setBytes := float64(paramBytes) / float64(len(s.ids))
	layerCounts(m, ps.saveCounts, ps.recoverCounts, ps.partialCounts, n, n, n*probeSingles, n*setBytes)
	busy := func(p pair) float64 { return (p[0].busy + p[1].busy).Seconds() }
	m["backend.busy_share_save"] = metric{ratio(busy(ps.saveCounts), ps.saveTime.Seconds()), "ratio"}
	m["backend.busy_share_recover"] = metric{ratio(busy(ps.recoverCounts), ps.recoverTime.Seconds()), "ratio"}
	m["cas.written_chunk_share"] = metric{ratio(float64(ps.saveCounts[0].calls[kPut][nsChunk]), float64(ps.offered)), "ratio"}
	hits, misses, evictions := after[0]-before[0], after[1]-before[1], after[2]-before[2]
	m["cache.hit_ratio"] = metric{ratio(float64(hits), float64(hits+misses)), "ratio"}
	m["cache.evictions_per_request"] = metric{ratio(float64(evictions), requests), "count"}
	m["server.requests_per_partial"] = metric{float64(ps.requests) / (n * probeSingles), "count"}
	m["server.wire_bytes_per_partial"] = metric{float64(ps.wireBytes) / (n * probeSingles), "B"}
	m["server.node_partial_ms"] = metric{median(ps.direct), "ms"}
	m["cluster.router_added_ms"] = metric{median(ps.routed) - median(ps.direct), "ms"}
	m["latency.m1_modeled_tts_s"] = metric{ps.modeledTTS.Seconds() / n, "s"}
	m["latency.m1_modeled_ttr_s"] = metric{ps.modeledTTR.Seconds() / n, "s"}
}
