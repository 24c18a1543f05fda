package main

import (
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"github.com/mmm-go/mmm/internal/storage/backend"
)

// Backend call kinds.
const (
	kPut = iota
	kGet
	kRange
	kSize
	kDelete
	kKeys
	nKinds
)

// Key namespaces: blobstore integrity manifests, the CAS layer's
// chunks, reference counts and recipes, and everything else (plain
// blobs, chunk indexes, documents).
const (
	nsManifest = iota
	nsChunk
	nsRef
	nsRecipe
	nsOther
	nNS
)

func namespace(key string) int {
	switch {
	case strings.HasPrefix(key, ".integrity/"):
		return nsManifest
	case strings.HasPrefix(key, "cas/chunks/"):
		return nsChunk
	case strings.HasPrefix(key, "cas/refs/"):
		return nsRef
	case strings.HasPrefix(key, "cas/recipes/"):
		return nsRecipe
	}
	return nsOther
}

// counts is what a countingBackend records: calls by kind and key
// namespace, bytes moved, and time spent inside the inner backend.
type counts struct {
	calls                 [nKinds][nNS]atomic.Int64
	readBytes, writeBytes atomic.Int64
	busy                  atomic.Int64 // nanoseconds
}

// snap is a plain copy of counts, for before/after differences.
type snap struct {
	calls                 [nKinds][nNS]int64
	readBytes, writeBytes int64
	busy                  time.Duration
}

func (c *counts) snap() snap {
	var s snap
	for k := 0; k < nKinds; k++ {
		for n := 0; n < nNS; n++ {
			s.calls[k][n] = c.calls[k][n].Load()
		}
	}
	s.readBytes = c.readBytes.Load()
	s.writeBytes = c.writeBytes.Load()
	s.busy = time.Duration(c.busy.Load())
	return s
}

func (s snap) sub(o snap) snap {
	for k := 0; k < nKinds; k++ {
		for n := 0; n < nNS; n++ {
			s.calls[k][n] -= o.calls[k][n]
		}
	}
	s.readBytes -= o.readBytes
	s.writeBytes -= o.writeBytes
	s.busy -= o.busy
	return s
}

func (s snap) add(o snap) snap {
	for k := 0; k < nKinds; k++ {
		for n := 0; n < nNS; n++ {
			s.calls[k][n] += o.calls[k][n]
		}
	}
	s.readBytes += o.readBytes
	s.writeBytes += o.writeBytes
	s.busy += o.busy
	return s
}

// kind sums one call kind over all namespaces.
func (s snap) kind(k int) int64 {
	var t int64
	for n := 0; n < nNS; n++ {
		t += s.calls[k][n]
	}
	return t
}

// ns sums all call kinds on one namespace.
func (s snap) ns(n int) int64 {
	var t int64
	for k := 0; k < nKinds; k++ {
		t += s.calls[k][n]
	}
	return t
}

// countingBackend is a backend.Backend decorator that records every
// call into a shared counts.
type countingBackend struct {
	inner backend.Backend
	c     *counts
}

func (c *counts) wrap(b backend.Backend) backend.Backend { return &countingBackend{inner: b, c: c} }

func (b *countingBackend) record(kind int, key string, start time.Time) {
	b.c.busy.Add(int64(time.Since(start)))
	b.c.calls[kind][namespace(key)].Add(1)
}

func (b *countingBackend) Put(key string, data []byte) error {
	start := time.Now()
	err := b.inner.Put(key, data)
	b.record(kPut, key, start)
	b.c.writeBytes.Add(int64(len(data)))
	return err
}

func (b *countingBackend) Get(key string) ([]byte, error) {
	start := time.Now()
	v, err := b.inner.Get(key)
	b.record(kGet, key, start)
	b.c.readBytes.Add(int64(len(v)))
	return v, err
}

func (b *countingBackend) GetRange(key string, off, length int64) ([]byte, error) {
	start := time.Now()
	v, err := b.inner.GetRange(key, off, length)
	b.record(kRange, key, start)
	b.c.readBytes.Add(int64(len(v)))
	return v, err
}

func (b *countingBackend) Size(key string) (int64, error) {
	start := time.Now()
	n, err := b.inner.Size(key)
	b.record(kSize, key, start)
	return n, err
}

func (b *countingBackend) Delete(key string) error {
	start := time.Now()
	err := b.inner.Delete(key)
	b.record(kDelete, key, start)
	return err
}

func (b *countingBackend) Keys() ([]string, error) {
	start := time.Now()
	keys, err := b.inner.Keys()
	b.record(kKeys, "", start)
	return keys, err
}

// tracer holds the per-layer instrumentation of one traced run.
type tracer struct {
	blobs, docs counts
}

// both snapshots the blob and document counts (zero snapshots when t
// is nil, in an untraced run).
func (t *tracer) both() pair {
	if t == nil {
		return pair{}
	}
	return pair{t.blobs.snap(), t.docs.snap()}
}

// pair is a blob ([0]) and a document ([1]) snapshot.
type pair [2]snap

func (p pair) sub(o pair) pair { return pair{p[0].sub(o[0]), p[1].sub(o[1])} }

func (p pair) add(o pair) pair { return pair{p[0].add(o[0]), p[1].add(o[1])} }

// wire counts HTTP requests and the bytes they move in both
// directions.
type wire struct {
	requests, bytes atomic.Int64
}

// countingTransport is an http.RoundTripper decorator feeding a wire.
type countingTransport struct {
	inner http.RoundTripper
	w     *wire
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.w.requests.Add(1)
	if r.ContentLength > 0 {
		t.w.bytes.Add(r.ContentLength)
	}
	resp, err := t.inner.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, w: t.w}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	w *wire
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.w.bytes.Add(int64(n))
	return n, err
}
