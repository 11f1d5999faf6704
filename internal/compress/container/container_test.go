package container

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func mustWrap(t *testing.T, codec string, n int, payload []byte) []byte {
	t.Helper()
	buf, err := Wrap(codec, n, payload)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, {0x42}, bytes.Repeat([]byte{1, 2, 3}, 1000)} {
		buf := mustWrap(t, "sz", 1234, payload)
		env, err := Unwrap(buf)
		if err != nil {
			t.Fatalf("payload len %d: %v", len(payload), err)
		}
		if env.Codec != "sz" || env.NumValues != 1234 || env.Version != Version {
			t.Fatalf("envelope %+v", env)
		}
		if !bytes.Equal(env.Payload, payload) {
			t.Fatal("payload not bit-exact")
		}
	}
}

func TestIsContainer(t *testing.T) {
	buf := mustWrap(t, "zfp", 8, []byte{9, 9})
	if !IsContainer(buf) {
		t.Fatal("wrapped payload not detected")
	}
	// Codec framings: sz marker bytes and the uvarint-magic codecs.
	for _, bare := range [][]byte{{0x00, 1, 2}, {0x01, 1, 2}, {0xb1, 0xa0, 0x91}, nil, {'z'}, {'z', 'M', 'c'}} {
		if IsContainer(bare) {
			t.Fatalf("false positive on % x", bare)
		}
	}
}

func TestWrapRejectsBadArgs(t *testing.T) {
	if _, err := Wrap("", 1, nil); err == nil {
		t.Fatal("empty codec name accepted")
	}
	if _, err := Wrap(strings.Repeat("x", MaxCodecName+1), 1, nil); err == nil {
		t.Fatal("oversized codec name accepted")
	}
	if _, err := Wrap("sz", -1, nil); err == nil {
		t.Fatal("negative value count accepted")
	}
}

// TestCorruptTable mutates a valid envelope at every field and asserts the
// mutation is rejected — never a silent wrong result.
func TestCorruptTable(t *testing.T) {
	payload := []byte{10, 20, 30, 40, 50}
	buf := mustWrap(t, "sz", 5, payload)

	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"bad version", func(b []byte) []byte { b[4] = 99; return b }},
		{"zero name length", func(b []byte) []byte { b[5] = 0; return b }},
		{"oversized name length", func(b []byte) []byte { b[5] = MaxCodecName + 1; return b }},
		{"name length past end", func(b []byte) []byte { b[5] = 30; return b }},
		{"flipped crc", func(b []byte) []byte { b[len(b)-len(payload)-1] ^= 1; return b }},
		{"flipped payload bit", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xde, 0xad) }},
	}
	// Truncation at every byte boundary is the container row of the root
	// package's TestEveryGrammarRejectsPrefixesAndPadding.
	for _, tc := range cases {
		mut := tc.mut(append([]byte(nil), buf...))
		if _, err := Unwrap(mut); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
}

func TestChecksumSentinel(t *testing.T) {
	buf := mustWrap(t, "sz", 5, []byte{1, 2, 3, 4, 5})
	buf[len(buf)-3] ^= 0x80
	_, err := Unwrap(buf)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("want ErrChecksum, got %v", err)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatal("ErrChecksum must wrap ErrCorrupt")
	}
}

func TestUnwrapAliasesNotCopies(t *testing.T) {
	payload := []byte{1, 2, 3}
	buf := mustWrap(t, "sz", 3, payload)
	env, err := Unwrap(buf)
	if err != nil {
		t.Fatal(err)
	}
	if &env.Payload[0] != &buf[len(buf)-3] {
		t.Fatal("Unwrap copied the payload")
	}
}
