package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	zmesh "repro"
	"repro/internal/compress"
	"repro/internal/compress/multilevel"
	"repro/internal/store"
	"repro/internal/wire"
)

// probeLayers reports the per-layer metrics of a traced run: what each
// section collected while it ran (its layers method), and what no workload
// call isolates, taken with direct calls into each layer's public functions on
// the workloads' own inputs for about budget in total.
func probeLayers(env *environment, secs []section, budget time.Duration, tr *tracer, r *report) error {
	in, re, sv, te := secs[0].(*insitu), secs[1].(*regrid), secs[2].(*svc), secs[3].(*temporal)
	quarter := budget / 4
	for _, p := range []struct {
		name string
		run  func() error
	}{
		{"probe.insitu", func() error { return in.probe(quarter, r) }},
		{"probe.regrid", func() error { return re.probe(quarter, r) }},
		{"probe.svc", func() error { return sv.probe(r) }},
		{"probe.wire_store", func() error { return te.probe(quarter, env, r) }},
	} {
		sp := tr.start(p.name, tr.op(), -1)
		err := p.run()
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}

	// Nothing may be shed or fail inside either daemon on any workload.
	var shed, failed int64
	for _, d := range []*daemon{sv.d, te.d} {
		snap := d.srv.Registry().Snapshot()
		for _, ep := range []string{"register", "compress", "decompress", "compress_stream", "decompress_stream",
			"checkpoint", "session_create", "session_frame", "session_seal", "checkpoint_read"} {
			shed += snap.Counters["server."+ep+".shed"]
			failed += snap.Counters["server."+ep+".errors"]
		}
	}
	r.set("server.shed", float64(shed))
	r.set("server.errors", float64(failed))
	if shed+failed > 0 {
		sv.done(fmt.Errorf("daemons shed %d and failed %d requests", shed, failed))
	}
	return nil
}

// probe times zfp directly on the reordered stream the replay left behind
// (sz comes from the replay itself).
func (s *insitu) probe(budget time.Duration, r *report) error {
	s.layers(r)
	zfp, err := compress.Get("zfp")
	if err != nil {
		return err
	}
	fieldMB := float64(s.ds.rawBytes()) / 1e6
	var payload []byte
	r.set("compress.zfp.compress_mbps", fieldMB/(median(timeFor(budget/2, func() {
		if p, e := zfp.Compress(s.ordered, []int{len(s.ordered)}, relBound); e != nil {
			err = e
		} else {
			payload = p
		}
	}))/1e3))
	if err != nil {
		return err
	}
	r.set("compress.zfp.decompress_mbps", fieldMB/(median(timeFor(budget/2, func() {
		if _, e := zfp.Decompress(payload); e != nil {
			err = e
		}
	}))/1e3))
	if err != nil {
		return err
	}

	// CompressFields with GOMAXPROCS workers against one worker cannot be a
	// speed-up while the run pins GOMAXPROCS to one: the pool then has one
	// worker and the two calls are the same code. Report the worker count.
	r.set("zmesh.fields_parallel_speedup", procs)
	return err
}

// probe times the library on the inputs the service saw. What the service
// path adds is the median, over the client's Compress and Decompress calls,
// of the call's latency minus the library's time on the same (mesh,
// pipeline, field).
func (s *svc) probe(r *report) error {
	s.layers(r)
	var scratch zmesh.Scratch
	type key struct{ kind, mesh, pipeline, field int }
	lib := make(map[key]float64)
	for mi, m := range s.meshes {
		dec := zmesh.NewDecoder(m.ds.mesh)
		for p := range svcCodecs {
			for f, vals := range m.ds.values {
				// The first round builds the decoder's recipe; time the rest.
				var c, d samples
				for rep := 0; rep < 4; rep++ {
					t0 := time.Now()
					if _, err := m.encs[p].CompressValuesScratch(m.ds.names[f], vals, relBound, &scratch); err != nil {
						return err
					}
					t1 := time.Now()
					if _, err := dec.DecompressValuesScratch(m.arts[p][f], &scratch); err != nil {
						return err
					}
					if rep > 0 {
						c.add(t1.Sub(t0))
						d.add(time.Since(t1))
					}
				}
				lib[key{opCompress, mi, p, f}] = median(c)
				lib[key{opDecompress, mi, p, f}] = median(d)
			}
		}
	}
	var over [numOpKinds][]float64
	for _, op := range s.ops {
		over[op.kind] = append(over[op.kind], op.ms-lib[key{op.kind, op.mesh, op.pipeline, op.field}])
	}
	r.timing("server.overhead_ms.compress", over[opCompress])
	r.timing("server.overhead_ms.decompress", over[opDecompress])
	return nil
}

// probe times the wire grammars, the progressive codec and the object store
// on a snapshot of the temporal workload.
func (s *temporal) probe(budget time.Duration, env *environment, r *report) error {
	s.layers(r)
	each := budget / 8
	m := s.mirrors[len(s.mirrors)-1]
	vals := m.values[0][temporalSnaps-1]
	mb := float64(8*len(vals)) / 1e6
	var err error
	keep := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}

	// wire.floats: encode, decode into a reused buffer, zero-copy view.
	var raw []byte
	var back []float64
	r.set("wire.floats_mbps", 3*mb/(median(timeFor(each, func() {
		raw = wire.AppendFloats(raw[:0], vals)
		var e error
		back, e = wire.DecodeFloatsInto(back, raw)
		keep(e)
		if v, ok := wire.ViewFloats(raw); ok && len(v) != len(vals) {
			keep(errors.New("wire.ViewFloats: wrong length"))
		}
	}))/1e3))

	// wire.chunk: frame the bytes, then read every frame back.
	var framed, chunk []byte
	r.set("wire.chunk_mbps", 2*mb/(median(timeFor(each, func() {
		framed = wire.AppendChunked(framed[:0], raw, wire.DefaultChunkBytes)
		cr := wire.NewChunkReader(bytes.NewReader(framed))
		for {
			p, e := cr.Next(chunk)
			if e == io.EOF {
				break
			}
			if e != nil {
				keep(e)
				break
			}
			chunk = p[:0]
		}
	}))/1e3))

	// wire.batch: five sections out, five back.
	var batch bytes.Buffer
	var section []byte
	r.set("wire.batch_mbps", 2*5*mb/(median(timeFor(each, func() {
		batch.Reset()
		bw := wire.NewBatchWriter(&batch)
		for i := 0; i < 5; i++ {
			keep(bw.WriteSection(fieldNames[i], "", raw))
		}
		keep(bw.Close())
		br := wire.NewBatchReader(bytes.NewReader(batch.Bytes()), 0)
		for {
			_, _, p, e := br.Next(section)
			if e == io.EOF {
				break
			}
			if e != nil {
				keep(e)
				break
			}
			section = p[:0]
		}
	}))/1e3))

	// wire.frame and wire.manifest: one delta frame of this workload, and a
	// manifest the shape of one of its checkpoints.
	enc, e := zmesh.NewTemporalEncoder(zmesh.DefaultOptions())
	if e != nil {
		return e
	}
	var tc *zmesh.TemporalCompressed
	for _, ds := range s.snaps[:2] {
		if tc, e = enc.CompressSnapshot(ds.fields[0], relBound); e != nil {
			return e
		}
	}
	frame := &wire.TemporalFrame{
		Keyframe: tc.Keyframe, Field: tc.FieldName, Layout: tc.Layout.String(), Curve: tc.Curve,
		Codec: tc.Codec, NumValues: tc.NumValues, Bound: tc.Bound, Structure: tc.Structure, Payload: tc.Payload,
	}
	var frameBytes []byte
	r.timing("wire.frame_us", scaled(timeFor(each, func() {
		var e error
		frameBytes, e = wire.EncodeTemporalFrame(frame)
		keep(e)
		_, e = wire.ParseTemporalFrame(frameBytes)
		keep(e)
	}), 1e3))
	man := &wire.Manifest{}
	for _, name := range s.snaps[0].names {
		mf := wire.ManifestField{Name: name, Layout: frame.Layout, Curve: frame.Curve, Codec: frame.Codec}
		for i := 0; i < temporalSnaps; i++ {
			mf.Frames = append(mf.Frames, wire.ManifestFrame{
				Keyframe: i%4 == 0, NumValues: frame.NumValues, Bound: frame.Bound,
				Bytes: int64(len(frameBytes)), Object: s.snaps[0].structureHash(),
			})
		}
		man.Fields = append(man.Fields, mf)
	}
	r.timing("wire.manifest_us", scaled(timeFor(each, func() {
		b, e := wire.EncodeManifest(man)
		keep(e)
		_, e = wire.ParseManifest(b)
		keep(e)
	}), 1e3))

	// compress.multilevel: the tiering a tiers read does server-side.
	bounds := make([]float64, readTiers)
	for i, b := 0, 0.1; i < readTiers; i, b = i+1, b/10 {
		bounds[i] = b
	}
	r.timing("compress.multilevel.progressive_ms", timeFor(each, func() {
		_, e := multilevel.New().CompressProgressive(vals, []int{len(vals)}, compress.Rel, bounds)
		keep(e)
	}))

	// store: frame-sized objects into a store on the same directory tree.
	st, e := store.Open(filepath.Join(env.tmpDir, "probe-store"))
	if e != nil {
		return e
	}
	blob := append([]byte(nil), frameBytes...)
	var ids []string
	r.timing("store.put_object_ms", timeFor(each, func() {
		// A changed first byte makes each blob a new object.
		binary.LittleEndian.PutUint32(blob, uint32(len(ids)))
		id, _, e := st.PutObject(blob)
		keep(e)
		ids = append(ids, id)
	}))
	next := 0
	r.timing("store.get_object_ms", timeFor(each, func() {
		_, e := st.GetObject(ids[next%len(ids)])
		keep(e)
		next++
	}))
	return err
}
