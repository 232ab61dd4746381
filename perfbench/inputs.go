package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sweb/internal/storage"
	"sweb/internal/workload"
)

// castagnoli is the body digest: hardware CRC32C keeps the client's
// verification cost small next to the server's work.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// doc is one generated document and what a correct response carries.
type doc struct {
	path  string
	size  int64
	owner int
	crc   uint32
}

// corpus is a live workload's document set, all derived from the seed.
type corpus struct {
	store  *storage.Store
	docs   []doc
	body   [][]byte // each document's bytes
	byPath map[string]int
}

// corpusSeed draws the non-uniform document sizes. It is fixed rather
// than taken from -seed: under Zipf popularity a handful of documents
// carry most requests, so letting each seed decide whether those are
// 100 B or 1.5 MiB would make the seed, not the server, set the measured
// latency. -seed still generates every document's bytes and the whole
// request schedule.
const corpusSeed = 1996

// newCorpus builds the manifest for w and generates every document's
// bytes from seed, once per run, so set-up only writes them out.
func newCorpus(w workloadCfg, seed int64) (*corpus, error) {
	st := storage.NewStore(w.Nodes)
	rng := rand.New(rand.NewSource(corpusSeed))
	var paths []string
	switch w.DocSet {
	case "uniform":
		paths = storage.UniformSet(st, w.DocCount, w.DocBytes)
	case "nonuniform":
		paths = storage.NonUniformSet(st, w.DocCount, w.DocMinBytes, w.DocMaxBytes, rng)
	default:
		return nil, fmt.Errorf("unknown doc_set %q", w.DocSet)
	}
	c := &corpus{store: st, byPath: map[string]int{}}
	for i, p := range paths {
		f, _ := st.Lookup(p)
		b := make([]byte, f.Size)
		rand.New(rand.NewSource(seed*1_000_003 + int64(i))).Read(b)
		c.docs = append(c.docs, doc{path: p, size: f.Size, owner: f.Owner, crc: crc32.Checksum(b, castagnoli)})
		c.body = append(c.body, b)
		c.byPath[p] = i
	}
	return c, nil
}

// totalBytes sums the corpus.
func (c *corpus) totalBytes() int64 {
	var n int64
	for _, d := range c.docs {
		n += d.size
	}
	return n
}

// writeDocroots lays the corpus out under dir: the shared manifest plus
// one docroot per node holding the documents it owns.
func (c *corpus) writeDocroots(dir string) (manifest string, roots []string, err error) {
	manifest = filepath.Join(dir, "cluster.manifest")
	mf, err := os.Create(manifest)
	if err != nil {
		return "", nil, err
	}
	if err := storage.WriteManifest(mf, c.store); err != nil {
		mf.Close()
		return "", nil, err
	}
	if err := mf.Close(); err != nil {
		return "", nil, err
	}
	for n := 0; n < c.store.Nodes(); n++ {
		roots = append(roots, filepath.Join(dir, fmt.Sprintf("node%d", n)))
	}
	for i := range c.docs {
		d := &c.docs[i]
		full := filepath.Join(roots[d.owner], filepath.FromSlash(strings.TrimPrefix(d.path, "/")))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return "", nil, err
		}
		if err := os.WriteFile(full, c.body[i], 0o644); err != nil {
			return "", nil, err
		}
	}
	return manifest, roots, nil
}

// request is one scheduled client request: which document, which node
// it lands on first (the DNS rotation stand-in), and, on the open loop,
// when it is due relative to the schedule's start.
type request struct {
	doc  int
	node int
	due  time.Duration
}

// schedule generates n requests for w from seed. Requests land on the
// nodes in turn; popularity follows w.Popularity; on the open loop the
// gaps are exponential at w.RateRPS (a Poisson stream).
func schedule(w workloadCfg, c *corpus, seed int64, n int) ([]request, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5c4ed))
	paths := make([]string, len(c.docs))
	for i, d := range c.docs {
		paths[i] = d.path
	}
	var pick workload.Picker
	switch w.Popularity {
	case "uniform":
		pick = workload.UniformPicker(paths)
	case "zipf":
		pick = workload.ZipfPicker(paths, w.ZipfS, rng)
	default:
		return nil, fmt.Errorf("unknown popularity %q", w.Popularity)
	}
	out := make([]request, n)
	var at float64
	for i := range out {
		out[i] = request{doc: c.byPath[pick(i, rng)], node: i % w.Nodes}
		if w.Loop == "open" {
			at += rng.ExpFloat64() / w.RateRPS
			out[i].due = time.Duration(at * float64(time.Second))
		}
	}
	return out, nil
}
