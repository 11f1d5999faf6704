package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/frame"
)

func sampleFrame(keyframe bool) *TemporalFrame {
	f := &TemporalFrame{
		Keyframe:  keyframe,
		Field:     "dens",
		Layout:    "zmesh",
		Curve:     "hilbert",
		Codec:     "sz",
		NumValues: 4096,
		Bound:     1e-3,
		Payload:   []byte("compressed payload bytes"),
	}
	if keyframe {
		f.Structure = []byte("serialized mesh structure")
	}
	return f
}

func TestTemporalFrameRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame *TemporalFrame
	}{
		{"keyframe", sampleFrame(true)},
		{"delta", sampleFrame(false)},
		{"forced keyframe", func() *TemporalFrame {
			f := sampleFrame(true)
			f.Forced = true
			return f
		}()},
		{"empty payload keyframe", func() *TemporalFrame {
			f := sampleFrame(true)
			f.Payload = nil
			return f
		}()},
		{"zero bound", func() *TemporalFrame {
			f := sampleFrame(false)
			f.Bound = 0
			return f
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := EncodeTemporalFrame(tc.frame)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ParseTemporalFrame(b)
			if err != nil {
				t.Fatal(err)
			}
			if got.Keyframe != tc.frame.Keyframe || got.Forced != tc.frame.Forced {
				t.Fatalf("flags round trip: got %+v", got)
			}
			if got.Field != tc.frame.Field || got.Layout != tc.frame.Layout ||
				got.Curve != tc.frame.Curve || got.Codec != tc.frame.Codec {
				t.Fatalf("identity round trip: got %+v", got)
			}
			if got.NumValues != tc.frame.NumValues || got.Bound != tc.frame.Bound {
				t.Fatalf("metadata round trip: got %+v", got)
			}
			if !bytes.Equal(got.Structure, tc.frame.Structure) || !bytes.Equal(got.Payload, tc.frame.Payload) {
				t.Fatalf("body round trip: got %+v", got)
			}
		})
	}
}

func TestTemporalFrameEncodeRejects(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame *TemporalFrame
	}{
		{"keyframe without structure", func() *TemporalFrame {
			f := sampleFrame(true)
			f.Structure = nil
			return f
		}()},
		{"delta with structure", func() *TemporalFrame {
			f := sampleFrame(false)
			f.Structure = []byte("x")
			return f
		}()},
		{"forced delta", func() *TemporalFrame {
			f := sampleFrame(false)
			f.Forced = true
			return f
		}()},
		{"oversized identity string", func() *TemporalFrame {
			f := sampleFrame(true)
			f.Field = strings.Repeat("x", MaxFrameString+1)
			return f
		}()},
		{"negative value count", func() *TemporalFrame {
			f := sampleFrame(true)
			f.NumValues = -1
			return f
		}()},
	} {
		if _, err := EncodeTemporalFrame(tc.frame); err == nil {
			t.Errorf("%s: encode succeeded, want error", tc.name)
		}
	}
}

func TestTemporalFrameParseRejects(t *testing.T) {
	valid, err := EncodeTemporalFrame(sampleFrame(true))
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
		{"empty", nil, ErrFrameMagic},
		{"bad magic", corrupt(func(b []byte) []byte { b[0] = 'X'; return b }), ErrFrameMagic},
		{"truncated header", []byte("ZMT1\x01"), ErrFrameTruncated},
		{"flipped body byte", corrupt(func(b []byte) []byte { b[10] ^= 0xFF; return b }), ErrFrameChecksum},
		{"flipped crc", corrupt(func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b }), ErrFrameChecksum},
		{"truncated tail", valid[:len(valid)-8], nil},
		{"trailing bytes", append(append([]byte(nil), valid...), 0), nil},
	} {
		_, err := ParseTemporalFrame(tc.buf)
		if err == nil {
			t.Errorf("%s: parse succeeded, want error", tc.name)
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: parse error = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestTemporalFrameLyingLengths rebuilds frames whose declared lengths or
// counts exceed the buffer, with the crc recomputed so only the length
// validation can reject them — a declared-length bomb must fail before any
// allocation is sized from it.
func TestTemporalFrameLyingLengths(t *testing.T) {
	reseal := func(body []byte) []byte {
		b := append([]byte(nil), temporalMagic[:]...)
		b = append(b, body...)
		crc := frame.Checksum(body)
		return binary.LittleEndian.AppendUint32(b, crc)
	}
	strField := func(s string) []byte {
		return appendFrameString(nil, s)
	}
	base := func() []byte {
		var b []byte
		b = append(b, temporalVersion, frameKeyframeFlag)
		b = append(b, strField("dens")...)
		b = append(b, strField("zmesh")...)
		b = append(b, strField("hilbert")...)
		b = append(b, strField("sz")...)
		return b
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"huge declared string", func() []byte {
			var b []byte
			b = append(b, temporalVersion, frameKeyframeFlag)
			b = binary.AppendUvarint(b, 1<<40) // field-name length bomb
			return b
		}()},
		{"huge declared values", func() []byte {
			b := base()
			b = binary.AppendUvarint(b, 1<<60) // numValues bomb
			return b
		}()},
		{"huge declared structure", func() []byte {
			b := base()
			b = binary.AppendUvarint(b, 64)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(1e-3))
			b = binary.AppendUvarint(b, 1<<50) // structureLen bomb
			return b
		}()},
		{"huge declared payload", func() []byte {
			b := base()
			b = binary.AppendUvarint(b, 64)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(1e-3))
			b = append(binary.AppendUvarint(b, 1), 'S')
			b = binary.AppendUvarint(b, 1<<50) // payloadLen bomb
			return b
		}()},
		{"nan bound", func() []byte {
			b := base()
			b = binary.AppendUvarint(b, 64)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(math.NaN()))
			b = append(binary.AppendUvarint(b, 1), 'S')
			b = binary.AppendUvarint(b, 0)
			return b
		}()},
		{"unknown flag bit", func() []byte {
			b := base()
			b[1] = frameKeyframeFlag | 1<<7
			b = binary.AppendUvarint(b, 64)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(1e-3))
			b = append(binary.AppendUvarint(b, 1), 'S')
			b = binary.AppendUvarint(b, 0)
			return b
		}()},
	} {
		if _, err := ParseTemporalFrame(reseal(tc.body)); err == nil {
			t.Errorf("%s: parse succeeded, want error", tc.name)
		}
	}
}

// FuzzTemporalFrame throws arbitrary bytes at the parser: it must never
// panic or over-allocate, and anything it accepts must re-encode to an
// equivalent frame.
func FuzzTemporalFrame(f *testing.F) {
	for _, kf := range []bool{true, false} {
		b, err := EncodeTemporalFrame(sampleFrame(kf))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		mutated := append([]byte(nil), b...)
		mutated[len(mutated)/2] ^= 0xFF
		f.Add(mutated)
	}
	f.Add([]byte{})
	f.Add([]byte("ZMT1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ParseTemporalFrame(data)
		if err != nil {
			return
		}
		re, err := EncodeTemporalFrame(fr)
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		fr2, err := ParseTemporalFrame(re)
		if err != nil {
			t.Fatalf("re-encoded frame failed to parse: %v", err)
		}
		if fr.Field != fr2.Field || fr.NumValues != fr2.NumValues ||
			!bytes.Equal(fr.Structure, fr2.Structure) || !bytes.Equal(fr.Payload, fr2.Payload) {
			t.Fatal("re-encode round trip diverged")
		}
	})
}
