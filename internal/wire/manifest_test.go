package wire

import (
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/frame"
)

func sampleManifest() *Manifest {
	return &Manifest{Fields: []ManifestField{
		{
			Name: "dens", Layout: "zmesh", Curve: "hilbert", Codec: "sz",
			Frames: []ManifestFrame{
				{Keyframe: true, NumValues: 4096, Bound: 1e-3, Bytes: 1234, Object: strings.Repeat("ab", 32)},
				{NumValues: 4096, Bound: 1e-3, Bytes: 456, Object: strings.Repeat("cd", 32)},
				{Keyframe: true, Forced: true, NumValues: 4096, Bound: 2e-3, Bytes: 1200, Object: strings.Repeat("ef", 32)},
			},
		},
		{
			Name: "pres", Layout: "tac", Curve: "morton", Codec: "zfp",
			Frames: []ManifestFrame{
				{Keyframe: true, NumValues: 512, Bound: 0, Bytes: 99, Object: strings.Repeat("01", 32)},
			},
		},
	}}
}

func TestManifestRoundTrip(t *testing.T) {
	m := sampleManifest()
	b, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseManifest(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestManifestEncodeRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(m *Manifest)
	}{
		{"bad object id", func(m *Manifest) { m.Fields[0].Frames[0].Object = "not-hex" }},
		{"short object id", func(m *Manifest) { m.Fields[0].Frames[0].Object = "abcd" }},
		{"negative values", func(m *Manifest) { m.Fields[0].Frames[0].NumValues = -1 }},
		{"negative bytes", func(m *Manifest) { m.Fields[0].Frames[0].Bytes = -1 }},
		{"oversized name", func(m *Manifest) { m.Fields[0].Name = strings.Repeat("x", MaxFrameString+1) }},
	} {
		m := sampleManifest()
		tc.mutate(m)
		if _, err := EncodeManifest(m); err == nil {
			t.Errorf("%s: encode succeeded, want error", tc.name)
		}
	}
}

func TestManifestParseRejects(t *testing.T) {
	valid, err := EncodeManifest(sampleManifest())
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(b []byte) []byte) []byte {
		return mutate(append([]byte(nil), valid...))
	}
	for _, tc := range []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty", nil, ErrManifestMagic},
		{"bad magic", corrupt(func(b []byte) []byte { b[0] = 'X'; return b }), ErrManifestMagic},
		{"flipped body byte", corrupt(func(b []byte) []byte { b[12] ^= 0xFF; return b }), ErrManifestChecksum},
		{"flipped crc", corrupt(func(b []byte) []byte { b[len(b)-2] ^= 0xFF; return b }), ErrManifestChecksum},
		{"truncated tail", valid[:len(valid)-10], nil},
		{"trailing bytes", append(append([]byte(nil), valid...), 0xEE), nil},
	} {
		_, err := ParseManifest(tc.buf)
		if err == nil {
			t.Errorf("%s: parse succeeded, want error", tc.name)
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: parse error = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// resealManifest wraps a hand-built body in magic + valid crc so only the
// structural validation can reject it.
func resealManifest(body []byte) []byte {
	b := append([]byte(nil), manifestMagic[:]...)
	b = append(b, body...)
	return binary.LittleEndian.AppendUint32(b, frame.Checksum(body))
}

// TestManifestCountBombs pins the declared-count defense: a manifest
// declaring vastly more fields or frames than its bytes could hold must be
// rejected before any slice is sized from the count.
func TestManifestCountBombs(t *testing.T) {
	fieldHeader := func() []byte {
		var b []byte
		b = append(b, manifestVersion)
		b = binary.AppendUvarint(b, 1) // one field
		b = append(b, appendFrameString(nil, "dens")...)
		b = append(b, appendFrameString(nil, "zmesh")...)
		b = append(b, appendFrameString(nil, "hilbert")...)
		b = append(b, appendFrameString(nil, "sz")...)
		return b
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"field-count bomb", func() []byte {
			var b []byte
			b = append(b, manifestVersion)
			b = binary.AppendUvarint(b, 1<<60)
			return b
		}()},
		{"frame-count bomb", func() []byte {
			b := fieldHeader()
			b = binary.AppendUvarint(b, 1<<60)
			return b
		}()},
		{"frame count exceeds bytes", func() []byte {
			b := fieldHeader()
			b = binary.AppendUvarint(b, 100) // declares 100 frames, supplies none
			return b
		}()},
		{"zero frames", func() []byte {
			b := fieldHeader()
			b = binary.AppendUvarint(b, 0)
			return b
		}()},
		{"zero fields", []byte{manifestVersion, 0}},
	} {
		if _, err := ParseManifest(resealManifest(tc.body)); err == nil {
			t.Errorf("%s: parse succeeded, want error", tc.name)
		}
	}
}

func TestManifestFirstFrameMustBeKeyframe(t *testing.T) {
	m := sampleManifest()
	m.Fields[0].Frames[0].Keyframe = false
	m.Fields[0].Frames[0].Forced = false
	b, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseManifest(b); err == nil {
		t.Fatal("manifest whose stream starts with a delta was accepted")
	}
}

// FuzzManifest throws arbitrary bytes at the parser: it must never panic or
// allocate from a lying count, and anything it accepts must round-trip.
func FuzzManifest(f *testing.F) {
	b, err := EncodeManifest(sampleManifest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	mutated := append([]byte(nil), b...)
	mutated[len(mutated)/2] ^= 0xFF
	f.Add(mutated)
	f.Add(resealManifest(func() []byte {
		var body []byte
		body = append(body, manifestVersion)
		body = binary.AppendUvarint(body, 1<<60)
		return body
	}()))
	f.Add([]byte{})
	f.Add([]byte("ZMM1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(data)
		if err != nil {
			return
		}
		re, err := EncodeManifest(m)
		if err != nil {
			t.Fatalf("accepted manifest failed to re-encode: %v", err)
		}
		m2, err := ParseManifest(re)
		if err != nil {
			t.Fatalf("re-encoded manifest failed to parse: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatal("re-encode round trip diverged")
		}
	})
}
