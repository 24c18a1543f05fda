package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/mmm-go/mmm/internal/codec"
	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/hashing"
	"github.com/mmm-go/mmm/internal/nn"
	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/blobstore"
	"github.com/mmm-go/mmm/internal/storage/cas"
	"github.com/mmm-go/mmm/internal/storage/docstore"
	"github.com/mmm-go/mmm/internal/storage/latency"
)

// layerMetrics lists every per-layer metric with its unit, in the
// order BENCHMARK.json declares them. A workload reports 0 for a
// metric whose layer is not on its path (see README.md).
var layerMetrics = [][2]string{
	{"core.baseline.tts_s", "s"}, {"core.baseline.ttr_s", "s"}, {"core.baseline.partial_ms", "ms"}, {"core.baseline.stored_bytes_per_param_byte", "B/B"},
	{"core.update.tts_s", "s"}, {"core.update.ttr_s", "s"}, {"core.update.partial_ms", "ms"}, {"core.update.stored_bytes_per_param_byte", "B/B"},
	{"core.provenance.tts_s", "s"}, {"core.provenance.ttr_s", "s"}, {"core.provenance.partial_ms", "ms"}, {"core.provenance.stored_bytes_per_param_byte", "B/B"},
	{"backend.blobs.puts_per_save", "count"}, {"backend.blobs.sizes_per_save", "count"}, {"backend.blobs.gets_per_recover", "count"},
	{"backend.blobs.range_gets_per_partial", "count"}, {"backend.docs.puts_per_save", "count"}, {"backend.docs.gets_per_recover", "count"},
	{"backend.blobs.write_bytes_per_param_byte", "B/B"}, {"backend.docs.bytes_read_per_partial", "B"},
	{"backend.busy_share_save", "ratio"}, {"backend.busy_share_recover", "ratio"},
	{"backend.put_MBps", "MB/s"}, {"backend.get_MBps", "MB/s"},
	{"blobstore.manifest_ops_per_save", "count"}, {"blobstore.manifest_gets_per_recover", "count"},
	{"blobstore.put_MBps", "MB/s"}, {"blobstore.get_MBps", "MB/s"},
	{"backend.dir_chunk_put_ms", "ms"}, {"blobstore.dir_chunk_put_ms", "ms"},
	{"cas.chunk_puts_per_save", "count"}, {"cas.ref_ops_per_save", "count"}, {"cas.recipe_ops_per_save", "count"},
	{"cas.chunk_gets_per_recover", "count"}, {"cas.written_chunk_share", "ratio"}, {"cas.chunker_MBps", "MB/s"}, {"cas.sha256_MBps", "MB/s"},
	{"codec.zlib.encode_MBps", "MB/s"}, {"codec.zlib.decode_MBps", "MB/s"}, {"codec.zlib.ratio", "ratio"},
	{"codec.tlz.encode_MBps", "MB/s"}, {"codec.tlz.decode_MBps", "MB/s"}, {"codec.tlz.ratio", "ratio"},
	{"hashing.tensor_MBps", "MB/s"},
	{"docstore.get_ms", "ms"},
	{"nn.train_samples_per_s", "1/s"},
	{"cache.hit_ratio", "ratio"}, {"cache.evictions_per_request", "count"},
	{"server.requests_per_partial", "count"}, {"server.wire_bytes_per_partial", "B"}, {"server.node_partial_ms", "ms"},
	{"cluster.router_added_ms", "ms"},
	{"latency.m1_modeled_tts_s", "s"}, {"latency.m1_modeled_ttr_s", "s"},
	{"traced.setup_s", "s"}, {"traced.tts_s", "s"}, {"traced.ttr_s", "s"}, {"traced.partial_ms", "ms"},
	{"traced.stored_bytes_per_param_byte", "B/B"}, {"traced.recover_alloc_per_param_byte", "B/B"},
	{"traced.serve_rps", "1/s"}, {"traced.serve_p50_ms", "ms"}, {"traced.serve_p90_ms", "ms"},
}

// zeroLayerMetrics returns every per-layer metric set to 0.
func zeroLayerMetrics() map[string]metric {
	m := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		m[lm[0]] = metric{0, lm[1]}
	}
	return m
}

// passTime is how long each isolated pass repeats its work.
const passTime = 150 * time.Millisecond

// mbps repeats fn (which processes n bytes) for at least passTime and
// returns the throughput in MB/s.
func mbps(n int, fn func()) float64 {
	start := time.Now()
	iters := 0
	for iters == 0 || time.Since(start) < passTime {
		fn()
		iters++
	}
	return float64(n) * float64(iters) / time.Since(start).Seconds() / 1e6
}

// isolatedPasses times single layers on the workload's own bytes: the
// chunker, SHA-256 and the codecs on the U3-3 snapshot, tensor hashing,
// blobstore and raw backend transfers of the U1 snapshot, a document
// read of the largest document under docsDir, and one model's
// retraining.
func isolatedPasses(fl *fleet, workDir string, docs backend.Backend, m map[string]metric) error {
	u1 := setBytes(fl.states[0])
	u3 := setBytes(fl.states[cycles])
	stride := fl.states[0].Arch.ParamBytes()
	chunks := cas.Chunks(u3, 0, cas.Hints{Stride: stride})
	m["cas.chunker_MBps"] = metric{mbps(len(u3), func() { cas.Chunks(u3, 0, cas.Hints{Stride: stride}) }), "MB/s"}
	m["cas.sha256_MBps"] = metric{mbps(len(u3), func() {
		for _, c := range chunks {
			sha256.Sum256(c.Data)
		}
	}), "MB/s"}

	// Codecs on the U3 chunk bodies: the chunks that differ from U1.
	var bodies [][]byte
	var raw int
	for _, c := range chunks {
		if !bytes.Equal(c.Data, u1[c.Offset:c.Offset+len(c.Data)]) {
			bodies = append(bodies, c.Data)
			raw += len(c.Data)
		}
	}
	for _, id := range []string{codec.ZlibID, codec.TLZID} {
		c, err := codec.Lookup(id)
		if err != nil {
			return err
		}
		// One untimed round trip: every body must decode to itself.
		enc := make([][]byte, len(bodies))
		encoded := 0
		for i, b := range bodies {
			if enc[i], err = c.Encode(nil, b); err != nil {
				return err
			}
			dec, err := c.Decode(enc[i], len(b))
			if err != nil {
				return err
			}
			if !bytes.Equal(dec, b) {
				return fmt.Errorf("codec %s: chunk body %d does not decode to itself", id, i)
			}
			encoded += len(enc[i])
		}
		var ferr error
		keep := func(err error) {
			if err != nil && ferr == nil {
				ferr = err
			}
		}
		p := "codec." + id + "."
		m[p+"ratio"] = metric{ratio(float64(raw), float64(encoded)), "ratio"}
		m[p+"encode_MBps"] = metric{mbps(raw, func() {
			for _, b := range bodies {
				_, err := c.Encode(nil, b)
				keep(err)
			}
		}), "MB/s"}
		m[p+"decode_MBps"] = metric{mbps(raw, func() {
			for i, e := range enc {
				_, err := c.Decode(e, len(bodies[i]))
				keep(err)
			}
		}), "MB/s"}
		if ferr != nil {
			return fmt.Errorf("codec %s: %w", id, ferr)
		}
	}

	var tensors int
	for _, mod := range fl.states[cycles].Models {
		for _, p := range mod.Params() {
			tensors += len(p.Tensor.Data) * 4
		}
	}
	m["hashing.tensor_MBps"] = metric{mbps(tensors, func() {
		for _, mod := range fl.states[cycles].Models {
			for _, p := range mod.Params() {
				hashing.Tensor(p.Tensor)
			}
		}
	}), "MB/s"}

	if err := transferPasses(u1, bodies, filepath.Join(workDir, "transfer"), m); err != nil {
		return err
	}
	if err := docPass(docs, m); err != nil {
		return err
	}
	return trainPass(fl, m)
}

// transferPasses writes and reads the U1 snapshot through a blobstore
// (with its integrity manifests) and straight through a Dir backend,
// then writes the chunk bodies one file each under content-addressed
// keys the way the CAS lays them out.
func transferPasses(blob []byte, chunks [][]byte, dir string, m map[string]metric) error {
	defer os.RemoveAll(dir)
	raw, err := backend.NewDir(filepath.Join(dir, "raw"))
	if err != nil {
		return err
	}
	bdir, err := backend.NewDir(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	bs := blobstore.New(bdir, latency.CostModel{}, nil)
	var ferr error
	keep := func(err error) {
		if err != nil && ferr == nil {
			ferr = err
		}
	}
	m["backend.put_MBps"] = metric{mbps(len(blob), func() { keep(raw.Put("u1", blob)) }), "MB/s"}
	m["backend.get_MBps"] = metric{mbps(len(blob), func() { _, err := raw.Get("u1"); keep(err) }), "MB/s"}
	m["blobstore.put_MBps"] = metric{mbps(len(blob), func() { keep(bs.Put("u1", blob)) }), "MB/s"}
	m["blobstore.get_MBps"] = metric{mbps(len(blob), func() { _, err := bs.Get("u1"); keep(err) }), "MB/s"}
	if ferr != nil {
		return ferr
	}
	for _, get := range []func(string) ([]byte, error){raw.Get, bs.Get} {
		got, err := get("u1")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, blob) {
			return fmt.Errorf("the U1 snapshot read back differs from the one written")
		}
	}
	if len(chunks) > 0 {
		ms, err := chunkPutMs(chunks, raw.Put)
		if err != nil {
			return err
		}
		m["backend.dir_chunk_put_ms"] = metric{ms, "ms"}
		if ms, err = chunkPutMs(chunks, bs.Put); err != nil {
			return err
		}
		m["blobstore.dir_chunk_put_ms"] = metric{ms, "ms"}
	}
	return nil
}

// chunkPutMs is the median time of putting each chunk under a fresh
// content-addressed key.
func chunkPutMs(chunks [][]byte, put func(string, []byte) error) (float64, error) {
	var times []float64
	for _, c := range chunks {
		h := sha256.Sum256(c)
		key := cas.ChunkKey(hex.EncodeToString(h[:]))
		t := time.Now()
		if err := put(key, c); err != nil {
			return 0, err
		}
		times = append(times, float64(time.Since(t))/1e6)
	}
	return median(times), nil
}

// docPass times reading (and parsing) the largest document b holds.
func docPass(b backend.Backend, m map[string]metric) error {
	keys, err := b.Keys()
	if err != nil {
		return err
	}
	var largest string
	var size int64
	for _, k := range keys {
		n, err := b.Size(k)
		if err != nil {
			return err
		}
		if strings.HasSuffix(k, ".json") && n > size {
			largest, size = k, n
		}
	}
	collection, file, ok := strings.Cut(largest, "/")
	if !ok {
		return fmt.Errorf("no documents to read")
	}
	id := strings.TrimSuffix(file, ".json")
	ds := docstore.New(b, latency.CostModel{}, nil)
	var times []float64
	start := time.Now()
	for len(times) < 3 || time.Since(start) < passTime {
		var v any
		t := time.Now()
		if err := ds.Get(collection, id, &v); err != nil {
			return err
		}
		times = append(times, float64(time.Since(t))/1e6)
	}
	m["docstore.get_ms"] = metric{median(times), "ms"}
	return nil
}

// trainPass retrains the first cycle's updated models from their U1
// state under the paper's recovery budget and reports samples trained
// per second.
func trainPass(fl *fleet, m map[string]metric) error {
	start := time.Now()
	samples := 0
	for _, u := range fl.updates[0] {
		data, err := fl.reg.Materialize(u.DatasetID)
		if err != nil {
			return err
		}
		cfg := fl.train.Config
		cfg.Seed = u.Seed
		cfg.TrainLayers = u.TrainLayers
		if cfg.Epochs > 2 {
			cfg.Epochs = 2
		}
		model := fl.states[0].Models[u.ModelIndex].Clone()
		if _, err := nn.Train(model, data, cfg); err != nil {
			return err
		}
		samples += data.Len() * cfg.Epochs
		if time.Since(start) >= passTime {
			break
		}
	}
	m["nn.train_samples_per_s"] = metric{float64(samples) / time.Since(start).Seconds(), "1/s"}
	return nil
}

// isolated runs the isolated passes of a sequence workload. The
// largest document comes from an Update chain saved for the purpose.
func (s *seqBench) isolated(m map[string]metric) error {
	st := openStores(s.fl.reg, nil)
	if _, err := saveChain(context.Background(), core.NewUpdate(st.stores, s.opts()...), s.fl); err != nil {
		return err
	}
	return isolatedPasses(s.fl, s.cfg.workDir, st.docs, m)
}

// recipeChunks sums the chunk counts of the CAS recipes under prefix.
func recipeChunks(st core.Stores, prefix string) (int, error) {
	cs := cas.For(st.Blobs)
	keys, err := cs.RecipeKeys(prefix)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, k := range keys {
		r, err := cs.Recipe(k)
		if err != nil {
			return 0, err
		}
		n += len(r.Chunks)
	}
	return n, nil
}
