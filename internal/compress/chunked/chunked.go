// Package chunked wraps any error-bounded codec with data-parallel
// chunking, the strategy ZFP's OpenMP mode and SZ's multi-threaded variants
// use: the stream is split into fixed-size chunks, chunks are compressed
// and decompressed concurrently by a bounded worker pool, and the framing
// records per-chunk payload lengths. The error bound is resolved against
// the whole stream first (a range-relative bound must not drift per chunk),
// then applied to every chunk as an absolute bound, so the global
// point-wise guarantee is preserved exactly.
//
// Chunking costs a little ratio (prediction/transform state resets at chunk
// boundaries, per-chunk headers) and buys near-linear speedup — the
// trade-off the parallel-scaling experiment quantifies.
package chunked

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/compress"
	"repro/internal/frame"
)

const (
	magic   = 0x43484b31 // "CHK1"
	version = 1
)

// DefaultChunkSize is the default number of values per chunk.
const DefaultChunkSize = 1 << 16

// Compressor applies Base to fixed-size chunks in parallel. Only 1-D data
// is supported (the mode the zMesh pipeline uses).
type Compressor struct {
	Base      compress.Compressor
	ChunkSize int // values per chunk; DefaultChunkSize when 0
	Workers   int // concurrent workers; GOMAXPROCS when 0
}

// New wraps base with default chunking.
func New(base compress.Compressor) *Compressor {
	return &Compressor{Base: base}
}

// Name implements compress.Compressor.
func (c *Compressor) Name() string { return c.Base.Name() + "-par" }

func (c *Compressor) chunkSize() int {
	if c.ChunkSize <= 0 {
		return DefaultChunkSize
	}
	return c.ChunkSize
}

func (c *Compressor) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// Compress implements compress.Compressor.
func (c *Compressor) Compress(data []float64, dims []int, bound compress.Bound) ([]byte, error) {
	if len(dims) != 1 {
		return nil, fmt.Errorf("chunked: only 1-D data supported, got %d dims", len(dims))
	}
	if err := compress.Validate(data, dims); err != nil {
		return nil, err
	}
	// Resolve the bound globally, then hand chunks an absolute bound.
	abs := compress.AbsBound(bound.Absolute(data))
	cs := c.chunkSize()
	nChunks := (len(data) + cs - 1) / cs
	if nChunks == 0 {
		nChunks = 1 // empty input still writes one (empty) frame table
	}
	payloads := make([][]byte, nChunks)
	errs := make([]error, nChunks)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < c.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range jobs {
				lo := ci * cs
				hi := lo + cs
				if hi > len(data) {
					hi = len(data)
				}
				if lo >= hi {
					payloads[ci] = nil
					continue
				}
				payloads[ci], errs[ci] = c.Base.Compress(data[lo:hi], []int{hi - lo}, abs)
			}
		}()
	}
	for ci := 0; ci < nChunks; ci++ {
		jobs <- ci
	}
	close(jobs)
	wg.Wait()
	for ci, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("chunked: chunk %d: %w", ci, err)
		}
	}
	out := make([]byte, 0, len(data))
	out = binary.AppendUvarint(out, magic)
	out = binary.AppendUvarint(out, version)
	out = binary.AppendUvarint(out, uint64(len(data)))
	out = binary.AppendUvarint(out, uint64(cs))
	out = binary.AppendUvarint(out, uint64(nChunks))
	for _, p := range payloads {
		out = binary.AppendUvarint(out, uint64(len(p)))
	}
	for _, p := range payloads {
		out = append(out, p...)
	}
	return out, nil
}

// ErrCorrupt is returned for malformed payloads.
var ErrCorrupt = errors.New("chunked: corrupt payload")

// chunkExtent is the number of values chunk ci must decode to for a stream
// of n values in chunks of cs.
func chunkExtent(ci, cs, n int) int {
	lo := ci * cs
	if lo >= n {
		return 0
	}
	if n-lo < cs {
		return n - lo
	}
	return cs
}

// Decompress implements compress.Compressor.
func (c *Compressor) Decompress(buf []byte) ([]float64, error) {
	r := frame.NewReader(buf)
	if r.Uvarint() != magic || r.Bad() {
		return nil, ErrCorrupt
	}
	if ver := r.Uvarint(); ver != version || r.Bad() {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, ver)
	}
	n64, cs64 := r.Uvarint(), r.Uvarint()
	// Every table entry takes at least a byte, so a chunk count the
	// remaining bytes could not hold fails here, before the table is sized.
	nChunks := r.Count(1)
	if r.Bad() || n64 > compress.MaxElements || cs64 == 0 || cs64 > compress.MaxElements {
		return nil, ErrCorrupt
	}
	// The chunk count is fully determined by the value count and chunk
	// size; anything else is a forged frame table.
	expectChunks := (n64 + cs64 - 1) / cs64
	if expectChunks == 0 {
		expectChunks = 1 // empty input still writes one (empty) frame
	}
	if uint64(nChunks) != expectChunks {
		return nil, ErrCorrupt
	}
	n, cs := int(n64), int(cs64)
	lengths := make([]uint64, nChunks)
	for i := range lengths {
		lengths[i] = r.Uvarint()
	}
	chunks := make([][]byte, nChunks)
	for i, l := range lengths {
		chunks[i] = r.Bytes(l)
	}
	// The chunk payloads must fill the rest of the buffer exactly:
	// trailing bytes after the last chunk are corruption, not slack.
	if r.Bad() || r.Len() != 0 {
		return nil, ErrCorrupt
	}
	// Validate chunk shapes before allocating the (possibly huge) output:
	// every chunk that must carry values needs a non-empty payload, and the
	// claimed value count must be plausible for the bytes present.
	for ci := 0; ci < nChunks; ci++ {
		if expect := chunkExtent(ci, cs, n); (expect > 0) != (len(chunks[ci]) > 0) {
			return nil, ErrCorrupt
		}
	}
	if err := compress.PlausibleCount(n, len(buf)); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	out := make([]float64, n)
	errs := make([]error, nChunks)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < c.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range jobs {
				expect := chunkExtent(ci, cs, n)
				if expect == 0 {
					continue
				}
				vals, err := c.Base.Decompress(chunks[ci])
				if err != nil {
					errs[ci] = err
					continue
				}
				// A chunk decoding to the wrong extent would silently
				// zero-fill (short) or clobber its neighbour (long).
				if len(vals) != expect {
					errs[ci] = ErrCorrupt
					continue
				}
				copy(out[ci*cs:], vals)
			}
		}()
	}
	for ci := 0; ci < nChunks; ci++ {
		jobs <- ci
	}
	close(jobs)
	wg.Wait()
	for ci, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("chunked: chunk %d: %w", ci, err)
		}
	}
	return out, nil
}
