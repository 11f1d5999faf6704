package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	zmesh "repro"
	"repro/internal/compress"
	"repro/internal/wire"
)

// Streaming transport: the chunked wire mode of zmeshd. The plain
// compress/decompress endpoints buffer each field as one float64-LE blob,
// which puts a hard RAM ceiling on checkpoint size; the -stream variants
// consume and produce the wire.Chunk framing through a fixed-size ring of
// pooled chunk buffers, so the only full-field buffer a request ever holds
// is the float64 value stream the codec itself needs — the byte-side body
// is never materialized. The checkpoint endpoint compresses every field of
// a snapshot in one request against one cached encoder, which is the
// paper's recipe-amortization claim made wire-visible: recipe.builds moves
// by one for N fields. See DESIGN.md "Streaming transport".

// ringSlots is the number of chunk buffers per ring. The per-request chunk
// memory is bounded by ringSlots × wire.MaxChunkPayload no matter how large
// the streamed field is.
const ringSlots = 4

// maxPooledRing caps the total chunk-buffer capacity a ring may carry back
// into its pool — the same one-big-request discipline as maxPooledBody.
const maxPooledRing = 4 << 20

// chunkRing is a fixed-size ring of chunk buffers: frames are read into
// slots round-robin, so a streamed body of any length recycles the same
// ringSlots buffers instead of growing a contiguous blob.
type chunkRing struct {
	slots [ringSlots][]byte
	next  int
}

// acquire hands out the next slot (index + current buffer).
func (r *chunkRing) acquire() (int, []byte) {
	i := r.next % ringSlots
	r.next++
	return i, r.slots[i]
}

// release returns a possibly-grown buffer to its slot.
func (r *chunkRing) release(i int, buf []byte) { r.slots[i] = buf }

// pinnedBytes is the total capacity the ring would pin in the pool.
func (r *chunkRing) pinnedBytes() int {
	n := 0
	for _, s := range r.slots {
		n += cap(s)
	}
	return n
}

var ringPool = sync.Pool{New: func() any { return new(chunkRing) }}

func putRing(r *chunkRing) {
	if r.pinnedBytes() > maxPooledRing {
		*r = chunkRing{}
	}
	ringPool.Put(r)
}

// streamParams resolves the shared front half of the compress-side
// handlers: mesh lookup, pipeline options, codec validation, and the mesh
// Decoder's shared encoder (one recipe build per (mesh, layout, curve) while
// the mesh stays registered).
func (s *Server) streamParams(r *http.Request) (*meshEntry, *zmesh.Encoder, error) {
	entry, err := s.resolveMesh(r.Context(), r.PathValue("id"))
	if err != nil {
		return nil, nil, err
	}
	opt, err := pipelineParams(r)
	if err != nil {
		return nil, nil, err
	}
	if _, err := compress.Get(opt.Codec); err != nil {
		return nil, nil, badRequest(err)
	}
	enc, cached, err := entry.dec.Encoder(opt)
	if err != nil {
		return nil, nil, err
	}
	if cached {
		s.store.hits.Inc()
	} else {
		s.store.misses.Inc()
	}
	return entry, enc, nil
}

// fieldParams is streamParams for the single-field compress handlers: the
// encoder and the cell count its value stream must have, plus the two query
// parameters they add — the error bound and the field name.
func (s *Server) fieldParams(r *http.Request) (enc *zmesh.Encoder, nCells int, bound zmesh.Bound, fieldName string, err error) {
	entry, enc, err := s.streamParams(r)
	if err != nil {
		return nil, 0, bound, "", err
	}
	boundStr := r.URL.Query().Get(wire.ParamBound)
	if boundStr == "" {
		return nil, 0, bound, "", badRequest(errors.New("missing bound parameter (e.g. bound=abs:1e-3)"))
	}
	if bound, err = wire.ParseBound(boundStr); err != nil {
		return nil, 0, bound, "", badRequest(err)
	}
	if fieldName = r.URL.Query().Get(wire.ParamField); fieldName == "" {
		fieldName = "field"
	}
	return enc, entry.mesh.NumBlocks() * entry.mesh.CellsPerBlock(), bound, fieldName, nil
}

// handleCompressStream: POST /v1/meshes/{id}/compress-stream, same query
// grammar as /compress; body = chunked stream of float64-LE level-order
// values, response = chunked stream of the container-enveloped payload
// with the X-Zmesh-* metadata headers.
func (s *Server) handleCompressStream(w http.ResponseWriter, r *http.Request) error {
	enc, nCells, bound, fieldName, err := s.fieldParams(r)
	if err != nil {
		return err
	}
	sc := scratchPool.Get().(*requestScratch)
	defer putScratch(sc)
	ring := ringPool.Get().(*chunkRing)
	defer putRing(ring)

	c, err := compressChunked(enc, fieldName, nCells, r.Body, bound, sc, ring)
	if err != nil {
		if cerr := r.Context().Err(); cerr != nil {
			return cerr // client gone mid-stream
		}
		return err
	}
	artifactHeaders(w.Header(), wire.ContentTypeChunked, c)
	if err := writeChunked(w, c.Payload); err != nil {
		return committed(err)
	}
	return nil
}

// compressChunked is the allocation-audited core of handleCompressStream:
// chunked body → incremental float decode through the ring → artifact. The
// ring bounds the byte-side memory; the float buffer is sized exactly once
// to the mesh's cell count (the codec needs the whole value stream either
// way). sc.body is never touched — the full wire body exists only as
// transient ring slots.
func compressChunked(enc *zmesh.Encoder, fieldName string, nCells int, body io.Reader, bound zmesh.Bound, sc *requestScratch, ring *chunkRing) (*zmesh.Compressed, error) {
	cr := wire.NewChunkReader(body)
	var asm wire.FloatAssembler
	asm.Reset(sc.values)
	asm.Grow(nCells)
	for {
		i, slot := ring.acquire()
		payload, err := cr.Next(slot)
		ring.release(i, payload)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, badRequest(fmt.Errorf("reading chunked values: %w", err))
		}
		asm.Feed(payload)
		if asm.Len() > nCells {
			return nil, badRequest(fmt.Errorf("stream exceeds the mesh's %d cells", nCells))
		}
	}
	values, err := asm.Finish()
	if err != nil {
		return nil, badRequest(err)
	}
	sc.values = values
	if len(values) != nCells {
		return nil, badRequest(fmt.Errorf("stream has %d values, mesh has %d cells", len(values), nCells))
	}
	return enc.CompressValuesScratch(fieldName, values, bound, &sc.zs)
}

// handleDecompressStream: POST /v1/meshes/{id}/decompress-stream, same
// query grammar as /decompress; body = chunked stream of a
// container-enveloped payload, response = chunked stream of float64-LE
// level-order values.
func (s *Server) handleDecompressStream(w http.ResponseWriter, r *http.Request) error {
	entry, shell, err := s.decodeParams(r)
	if err != nil {
		return err
	}
	sc := scratchPool.Get().(*requestScratch)
	defer putScratch(sc)
	ring := ringPool.Get().(*chunkRing)
	defer putRing(ring)

	// Assemble the artifact payload chunk by chunk. Unlike the value
	// stream, the payload must be contiguous for the codec — but it is the
	// *compressed* representation, typically 4-10× smaller than the field,
	// and it reuses the pooled body buffer.
	cr := wire.NewChunkReader(r.Body)
	sc.body = sc.body[:0]
	for {
		i, slot := ring.acquire()
		payload, err := cr.Next(slot)
		ring.release(i, payload)
		if err == io.EOF {
			break
		}
		if err != nil {
			return badRequest(fmt.Errorf("reading chunked payload: %w", err))
		}
		sc.body = append(sc.body, payload...)
	}
	out, err := decodeBody(w, r, wire.ContentTypeChunked, entry, shell, sc)
	if err != nil {
		return err
	}
	if err := writeChunked(w, out); err != nil {
		return committed(err)
	}
	return nil
}

// writeChunked frames data onto w in DefaultChunkBytes slices — zero-copy:
// each frame's payload is a sub-slice of data.
func writeChunked(w io.Writer, data []byte) error {
	cw := wire.NewChunkWriter(w)
	for off := 0; off < len(data); off += wire.DefaultChunkBytes {
		end := off + wire.DefaultChunkBytes
		if end > len(data) {
			end = len(data)
		}
		if err := cw.WriteChunk(data[off:end]); err != nil {
			return err
		}
	}
	return cw.Close()
}

// handleCheckpoint: POST /v1/meshes/{id}/checkpoint?layout=&curve=&codec=[&bound=],
// body = batch framing with one section per field (meta = the field's
// error bound, falling back to the query bound when empty); response =
// batch framing with one section per field (meta = decoded value count,
// payload = container-enveloped artifact). All sections are compressed
// against one cached encoder, so the whole checkpoint costs at most one
// recipe build — the paper's amortization claim as a wire contract.
//
// The request streams: each raw field is read, compressed, and its buffer
// recycled before the next section, so peak raw-field memory is one field.
// The response sections, however, are accumulated and written only after
// the request is fully consumed — net/http makes the request body
// unavailable once the response starts flushing, so the two cannot be
// interleaved. Buffering the compressed side costs the compressed
// checkpoint (typically several times smaller than one raw field), and it
// means any per-section failure surfaces as a clean JSON error instead of
// a truncated body.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) error {
	entry, enc, err := s.streamParams(r)
	if err != nil {
		return err
	}
	var defaultBound zmesh.Bound
	haveDefault := false
	if boundStr := r.URL.Query().Get(wire.ParamBound); boundStr != "" {
		if defaultBound, err = wire.ParseBound(boundStr); err != nil {
			return badRequest(err)
		}
		haveDefault = true
	}
	nCells := entry.mesh.NumBlocks() * entry.mesh.CellsPerBlock()
	sc := scratchPool.Get().(*requestScratch)
	defer putScratch(sc)

	br := wire.NewBatchReader(r.Body, s.cfg.MaxBodyBytes)
	var resp bytes.Buffer
	bw := wire.NewBatchWriter(&resp)
	var layoutStr, curve, codec string
	fields := 0
	for {
		name, meta, payload, err := br.Next(sc.body)
		if err == io.EOF {
			break
		}
		if err != nil {
			return badRequest(fmt.Errorf("reading batch section: %w", err))
		}
		sc.body = payload[:0]
		if name == "" {
			name = "field"
		}
		bound := defaultBound
		if meta != "" {
			if bound, err = wire.ParseBound(meta); err != nil {
				return badRequest(fmt.Errorf("section %q: %w", name, err))
			}
		} else if !haveDefault {
			return badRequest(fmt.Errorf("section %q: no bound (set section meta or the bound query parameter)", name))
		}
		c, err := compressStream(enc, name, nCells, payload, bound, sc)
		if err != nil {
			return err
		}
		if err := bw.WriteSection(c.FieldName, strconv.Itoa(c.NumValues), c.Payload); err != nil {
			return err
		}
		layoutStr, curve, codec = c.Layout.String(), c.Curve, c.Codec
		fields++
		s.checkpointFields.Inc()
	}
	if fields == 0 {
		return badRequest(errors.New("empty checkpoint batch"))
	}
	if err := bw.Close(); err != nil {
		return err
	}
	h := w.Header()
	h.Set("Content-Type", wire.ContentTypeBatch)
	h.Set(wire.HeaderLayout, layoutStr)
	h.Set(wire.HeaderCurve, curve)
	h.Set(wire.HeaderCodec, codec)
	if _, err := w.Write(resp.Bytes()); err != nil {
		return committed(err)
	}
	return nil
}
