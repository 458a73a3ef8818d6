package wire

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"locshort/internal/service"
)

// sameRequest compares two requests field by field. A nil and a non-nil
// empty Parts differ (they select different frame versions); inner parts
// compare by their elements.
func sameRequest(a, b ShortcutRequest) bool {
	if a.Graph != b.Graph || a.Partition != b.Partition || a.Seed != b.Seed || a.Options != b.Options ||
		(a.Parts == nil) != (b.Parts == nil) || len(a.Parts) != len(b.Parts) {
		return false
	}
	for i := range a.Parts {
		if len(a.Parts[i]) != len(b.Parts[i]) {
			return false
		}
		for j := range a.Parts[i] {
			if a.Parts[i][j] != b.Parts[i][j] {
				return false
			}
		}
	}
	return true
}

func TestShortcutRequestRoundTrip(t *testing.T) {
	cases := []ShortcutRequest{
		{},
		{Graph: 0xdeadbeefcafef00d, Partition: "blobs:8", Seed: 42, Options: "delta=3"},
		{Graph: 1, Partition: "rows:16x16", Seed: -7},
		{Graph: service.Fingerprint(^uint64(0)), Partition: strings.Repeat("x", 1000), Seed: 1<<62 - 1, Options: strings.Repeat("o", 1000)},
		{Graph: 7, Parts: [][]int{{4, 0, 2}, {1}, {3, 5}}},
		{Graph: 8, Parts: [][]int{}},
		{Graph: 9, Parts: [][]int{{}}, Options: "delta=2"},
		{Graph: 10, Parts: [][]int{{math.MaxInt, 0, 1 << 40}}, Seed: 5},
	}
	for i, want := range cases {
		b := AppendShortcutRequest(nil, want)
		wantV := byte(1)
		if want.Parts != nil {
			wantV = 2
		}
		if b[0] != wantV {
			t.Errorf("case %d: version byte %d, want %d", i, b[0], wantV)
		}
		got, err := DecodeShortcutRequest(b)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !sameRequest(got, want) {
			t.Errorf("case %d: round trip changed the request:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestShortcutRequestV1Bytes pins the spec-form frame byte for byte: a
// request without parts must keep encoding exactly as version 1 always
// has, so v1 clients, recorded bodies, and the committed fuzz corpus stay
// valid.
func TestShortcutRequestV1Bytes(t *testing.T) {
	got := hex.EncodeToString(AppendShortcutRequest(nil, ShortcutRequest{
		Graph: 0x346a1124012c1d61, Partition: "blobs:8", Seed: -3, Options: "delta=4",
	}))
	const want = "01346a1124012c1d6107626c6f62733a38050764656c74613d34"
	if got != want {
		t.Fatalf("v1 frame = %s, want %s", got, want)
	}
}

func TestShortcutRequestDecodeErrors(t *testing.T) {
	valid := AppendShortcutRequest(nil, ShortcutRequest{
		Graph: 5, Partition: "blobs:4", Seed: 9, Options: "delta=2",
	})
	withParts := AppendShortcutRequest(nil, ShortcutRequest{
		Graph: 5, Options: "delta=2", Parts: [][]int{{0, 300}, {2}},
	})
	// Every strict prefix must fail: neither layout has an optional suffix.
	for _, frame := range [][]byte{valid, withParts} {
		for n := 0; n < len(frame); n++ {
			if _, err := DecodeShortcutRequest(frame[:n]); err == nil {
				t.Fatalf("prefix of %d/%d bytes of a v%d frame decoded without error", n, len(frame), frame[0])
			}
		}
	}
	bad := append([]byte{}, valid...)
	bad[0] = 3
	if _, err := DecodeShortcutRequest(bad); err == nil {
		t.Error("future version byte accepted")
	}
	// A v1 body relabeled v2 lacks the part count.
	bad[0] = 2
	if _, err := DecodeShortcutRequest(bad); err == nil {
		t.Error("v2 frame without a part list accepted")
	}
	for _, frame := range [][]byte{valid, withParts} {
		if _, err := DecodeShortcutRequest(append(append([]byte{}, frame...), 0)); err == nil {
			t.Errorf("trailing byte after a v%d frame accepted", frame[0])
		}
	}
	// A declared string length far beyond the buffer must be rejected
	// before allocation (maxRequestString).
	huge := []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, err := DecodeShortcutRequest(huge); err == nil {
		t.Error("absurd string length accepted")
	}
	// Claimed part counts, part sizes, and node IDs past what the frame
	// can hold are rejected before anything is allocated.
	head := AppendShortcutRequest(nil, ShortcutRequest{Graph: 5})
	head[0] = 2
	for name, tail := range map[string][]byte{
		"part count": binary.AppendUvarint(nil, 1<<40),
		"part size":  binary.AppendUvarint([]byte{1}, 1<<40),
		"node ID":    binary.AppendUvarint([]byte{1, 1}, math.MaxUint64),
	} {
		if _, err := DecodeShortcutRequest(append(append([]byte{}, head...), tail...)); err == nil {
			t.Errorf("absurd %s accepted", name)
		}
	}
}

func TestIsBinary(t *testing.T) {
	for v, want := range map[string]bool{
		ContentType:                      true,
		" application/x-locshort ":       true,
		"application/x-locshort; q=0.9":  true,
		"application/json":               false,
		"":                               false,
		"application/x-locshort-variant": false,
	} {
		if got := IsBinary(v); got != want {
			t.Errorf("IsBinary(%q) = %v, want %v", v, got, want)
		}
	}
}

func FuzzDecodeShortcutRequest(f *testing.F) {
	f.Add(AppendShortcutRequest(nil, ShortcutRequest{Graph: 3, Partition: "blobs:4", Seed: 1}))
	f.Add([]byte{1})
	f.Add(AppendShortcutRequest(nil, ShortcutRequest{Graph: 3, Parts: [][]int{{0, 1, 2}, {200, 3}}}))
	f.Add(AppendShortcutRequest(nil, ShortcutRequest{Graph: 3, Parts: [][]int{}}))
	f.Add(append(AppendShortcutRequest(nil, ShortcutRequest{Graph: 3, Parts: [][]int{}})[:13],
		binary.AppendUvarint(nil, 1<<50)...))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeShortcutRequest(b)
		if err != nil {
			return
		}
		if (r.Parts != nil) != (b[0] == 2) {
			t.Fatalf("version %d frame decoded Parts nil=%v", b[0], r.Parts == nil)
		}
		// The request envelope is never hashed, so padded varints making
		// two byte forms of one request are fine — but whatever decoded
		// must survive a re-encode round trip unchanged.
		r2, err := DecodeShortcutRequest(AppendShortcutRequest(nil, r))
		if err != nil {
			t.Fatalf("re-encode of accepted request does not decode: %v", err)
		}
		if !sameRequest(r2, r) {
			t.Fatalf("re-encode round trip changed the request: %+v vs %+v", r2, r)
		}
	})
}
