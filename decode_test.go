package zmesh

// Decode-path hardening tests: container envelope verification, bare
// codec payloads refused, concurrent Decoder use (meaningful under
// `go test -race`), and the concurrent DecompressFields/CompressFields
// worker pools.

import (
	"encoding/hex"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/compress/container"
)

// compressedFor compresses the checkpoint's density field with the given
// options.
func compressedFor(t *testing.T, opt Options) (*Compressed, *Checkpoint) {
	t.Helper()
	ck := checkpoint(t)
	dens, _ := ck.Field("dens")
	enc, err := NewEncoder(ck.Mesh, opt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := enc.CompressField(dens, RelBound(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	return c, ck
}

func TestPayloadIsContainerWrapped(t *testing.T) {
	c, _ := compressedFor(t, DefaultOptions())
	if !container.IsContainer(c.Payload) {
		t.Fatal("CompressField payload is not container-wrapped")
	}
	env, err := container.Unwrap(c.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if env.Codec != c.Codec || env.NumValues != c.NumValues {
		t.Fatalf("envelope %+v disagrees with artifact codec=%s n=%d", env, c.Codec, c.NumValues)
	}
}

// stripEnvelope returns the bare codec payload inside a container envelope.
func stripEnvelope(t *testing.T, payload []byte) []byte {
	t.Helper()
	env, err := container.Unwrap(payload)
	if err != nil {
		t.Fatal(err)
	}
	return env.Payload
}

func TestBarePayloadRejected(t *testing.T) {
	// A codec payload without the envelope carries no checksum and no codec
	// name: the decoder refuses it at the magic instead of guessing.
	c, ck := compressedFor(t, DefaultOptions())
	bare := *c
	bare.Payload = stripEnvelope(t, c.Payload)
	_, err := NewDecoder(ck.Mesh).DecompressField(&bare)
	if !errors.Is(err, container.ErrCorrupt) || !strings.Contains(err.Error(), "missing magic") {
		t.Fatalf("bare payload: %v, want container.ErrCorrupt (missing magic)", err)
	}
}

// TestCorruptPayloadRejected is the table-driven corrupt-payload sweep at
// the public-API level: every mutation must fail loudly, never decode to a
// wrong field.
func TestCorruptPayloadRejected(t *testing.T) {
	c, ck := compressedFor(t, DefaultOptions())
	dec := NewDecoder(ck.Mesh)

	cases := []struct {
		name string
		mut  func(Compressed) *Compressed
	}{
		{"flipped payload byte", func(m Compressed) *Compressed {
			m.Payload = append([]byte(nil), m.Payload...)
			m.Payload[len(m.Payload)/2] ^= 0x10
			return &m
		}},
		{"flipped crc byte", func(m Compressed) *Compressed {
			// CRC sits right before the payload; locate via unwrap.
			env, _ := container.Unwrap(m.Payload)
			m.Payload = append([]byte(nil), m.Payload...)
			m.Payload[len(m.Payload)-len(env.Payload)-1] ^= 1
			return &m
		}},
		{"truncated", func(m Compressed) *Compressed {
			m.Payload = m.Payload[:len(m.Payload)-7]
			return &m
		}},
		{"trailing bytes", func(m Compressed) *Compressed {
			m.Payload = append(append([]byte(nil), m.Payload...), 1, 2, 3)
			return &m
		}},
		{"codec mismatch", func(m Compressed) *Compressed {
			m.Codec = "zfp"
			return &m
		}},
		{"value count mismatch", func(m Compressed) *Compressed {
			m.NumValues++
			return &m
		}},
	}
	// Truncation at every envelope header boundary.
	env, _ := container.Unwrap(c.Payload)
	headerLen := len(c.Payload) - len(env.Payload)
	for cut := 0; cut < headerLen; cut++ {
		m := *c
		m.Payload = c.Payload[:cut]
		if _, err := dec.DecompressField(&m); err == nil {
			t.Fatalf("header truncation at %d accepted", cut)
		}
	}
	for _, tc := range cases {
		if _, err := dec.DecompressField(tc.mut(*c)); err == nil {
			t.Fatalf("%s: decoded successfully", tc.name)
		}
	}
}

func TestChecksumErrorSurfaces(t *testing.T) {
	c, ck := compressedFor(t, DefaultOptions())
	mut := *c
	mut.Payload = append([]byte(nil), c.Payload...)
	mut.Payload[len(mut.Payload)-1] ^= 0x40
	_, err := NewDecoder(ck.Mesh).DecompressField(&mut)
	if !errors.Is(err, container.ErrCorrupt) {
		t.Fatalf("want container.ErrCorrupt, got %v", err)
	}
}

// TestDecoderConcurrentUse exercises one Decoder from many goroutines
// across distinct layout/curve recipe keys. On the seed code the recipe
// map was written without synchronization; under -race this test fails
// there and must pass now.
func TestDecoderConcurrentUse(t *testing.T) {
	ck := checkpoint(t)
	dens, _ := ck.Field("dens")
	opts := []Options{
		{Layout: LayoutZMesh, Curve: "hilbert", Codec: "sz"},
		{Layout: LayoutZMesh, Curve: "morton", Codec: "sz"},
		{Layout: LayoutLevel, Curve: "hilbert", Codec: "sz"},
		{Layout: LayoutSFC, Curve: "morton", Codec: "zfp"},
	}
	artifacts := make([]*Compressed, len(opts))
	for i, opt := range opts {
		enc, err := NewEncoder(ck.Mesh, opt)
		if err != nil {
			t.Fatal(err)
		}
		if artifacts[i], err = enc.CompressField(dens, RelBound(1e-3)); err != nil {
			t.Fatal(err)
		}
	}

	dec := NewDecoder(ck.Mesh)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*len(artifacts); i++ {
				c := artifacts[(g+i)%len(artifacts)]
				if _, err := dec.DecompressField(c); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestDecompressFields(t *testing.T) {
	ck := checkpoint(t)
	enc, err := NewEncoder(ck.Mesh, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fields := make([]*Field, 0, len(ck.Fields))
	for _, f := range ck.Fields {
		fields = append(fields, f)
	}
	cs, err := enc.CompressFields(fields, RelBound(1e-3), 4)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(ck.Mesh)
	got, err := dec.DecompressFields(cs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(fields) {
		t.Fatalf("%d fields decoded, want %d", len(got), len(fields))
	}
	eb := RelBound(1e-3)
	for i, f := range fields {
		if got[i].Name != f.Name {
			t.Fatalf("field %d: order not preserved (%s vs %s)", i, got[i].Name, f.Name)
		}
		e, err := MaxAbsError(f, got[i])
		if err != nil {
			t.Fatal(err)
		}
		if bound := eb.Absolute(FieldValues(f)); e > bound {
			t.Fatalf("field %s: error %g exceeds bound %g", f.Name, e, bound)
		}
	}
	// One corrupt artifact fails the whole batch with its field name.
	bad := *cs[1]
	bad.Payload = append([]byte(nil), bad.Payload...)
	bad.Payload[len(bad.Payload)-2] ^= 2
	cs[1] = &bad
	if _, err := dec.DecompressFields(cs, 4); err == nil {
		t.Fatal("corrupt artifact in batch accepted")
	}
}

func TestCompressFieldsFailsFastOnUnknownCodec(t *testing.T) {
	// A registry miss must abort the call before any work is scheduled,
	// not only on the indices an unlucky worker consumed.
	ck := checkpoint(t)
	dens, _ := ck.Field("dens")
	enc, err := NewEncoder(ck.Mesh, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	enc.opt.Codec = "no-such-codec"
	_, err = enc.CompressFields([]*Field{dens, dens, dens}, RelBound(1e-3), 2)
	if err == nil {
		t.Fatal("unknown codec accepted")
	}
}

// A zmesh/hilbert "mgl" artifact of a one-block 2-D mesh (sin(9x)·cos(5y),
// rel 1e-3), as written before the multilevel field codec was retired: the
// mesh structure and the enveloped payload, hex.
const (
	retiredMGLStructure = "c8a6b5d20702080101010000"
	retiredMGLPayload   = "7a4d633102036d676c40af01fadc449b00b1989dea0402014080800489d7a7a088e5ac9a3f00970100000100c0000068786301378170c0570097042c841868040af141171710124ea0d94113c44118134e070a411211d461841724514117191b1b4c793004db8147d0861f188415421a78c485191d4ea052a10651201c4238c1133c816da0186044b881000000000ea9dc130c5f43e535b9ee722095c8a3a2a6d954ce260a5e7e06bd67d11b90f6b1045f3380a622c73388371b743f9def01"
)

// "mgl" is no codec any more: an encoder for it and a decoder handed one of
// its old artifacts both get the registry's unknown-codec error, the one the
// server answers 400 for. The artifact's envelope is version 2, which
// Unwrap now refuses, so its payload is resealed in a current one.
func TestRetiredCodecIsUnknown(t *testing.T) {
	ck := checkpoint(t)
	if _, err := NewEncoder(ck.Mesh, Options{Codec: "mgl"}); !errors.Is(err, compress.ErrUnknownCodec) {
		t.Fatalf("NewEncoder(mgl): %v, want ErrUnknownCodec", err)
	}
	structure, _ := hex.DecodeString(retiredMGLStructure)
	old, _ := hex.DecodeString(retiredMGLPayload)
	// magic, version, name length, "mgl", value count, payload length (2 bytes), CRC
	const envelopeHead = 4 + 1 + 1 + 3 + 1 + 2 + 4
	payload, err := container.Wrap("mgl", 64, old[envelopeHead:])
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoderFromStructure(structure)
	if err != nil {
		t.Fatal(err)
	}
	c := &Compressed{FieldName: "dens", Layout: LayoutZMesh, Curve: "hilbert", Codec: "mgl", NumValues: 64, Payload: payload}
	if env, err := container.Unwrap(c.Payload); err != nil || len(env.Payload) != 175 {
		t.Fatalf("the resealed envelope: %v", err)
	}
	if _, err := dec.DecompressField(c); !errors.Is(err, compress.ErrUnknownCodec) {
		t.Fatalf("DecompressField(mgl artifact): %v, want ErrUnknownCodec", err)
	}
}
