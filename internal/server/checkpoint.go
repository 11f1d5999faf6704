package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	zmesh "repro"
	"repro/internal/compress"
	"repro/internal/wire"
)

// Compress-side request parsing shared by the single-field compress handler
// and the checkpoint batch endpoint. The checkpoint endpoint compresses every
// field of a snapshot in one request against one cached encoder, which is
// the paper's recipe-amortization claim made wire-visible: recipe.builds
// moves by one for N fields. See DESIGN.md "Compress transport".

// compressParams resolves the shared front half of the compress-side
// handlers: mesh lookup, pipeline options, codec validation, and the mesh
// Decoder's shared encoder (one recipe build per (mesh, layout, curve) while
// the mesh stays registered).
func (s *Server) compressParams(r *http.Request) (*meshEntry, *zmesh.Encoder, error) {
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

// fieldParams is compressParams for the single-field compress handler: the
// encoder and the cell count its body must hold, plus the two query
// parameters it adds — the error bound and the field name.
func (s *Server) fieldParams(r *http.Request) (enc *zmesh.Encoder, nCells int, bound zmesh.Bound, fieldName string, err error) {
	entry, enc, err := s.compressParams(r)
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
	entry, enc, err := s.compressParams(r)
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
