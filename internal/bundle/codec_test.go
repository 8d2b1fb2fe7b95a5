package bundle

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"
)

// escapeStrings are the string values the filler cycles through: plain
// ASCII, and every class encoding/json escapes or passes through.
var escapeStrings = []string{
	"plain",
	`quote " and backslash \ `,
	"\b\f\n\r\t and \x00\x01\x1f",
	"<tag> & amp",
	"del \x7f",
	"line " + string(rune(lineSep)) + " para " + string(rune(paraSep)),
	"multi-byte é 世 \U0001F600 and a valid " + string(utf8.RuneError),
	"",
}

// filler sets every exported field of a value non-zero, except one
// hole: the hole-th slice or pointer met in walk order is left nil, or
// made an empty slice when empty is set. hole -1 leaves none.
type filler struct {
	t     *testing.T
	n     int
	hole  int
	empty bool
	holes int
}

func (f *filler) fill(v reflect.Value) {
	f.n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				f.fill(v.Field(i))
			}
		}
	case reflect.Pointer, reflect.Slice:
		k := f.holes
		f.holes++
		switch {
		case k == f.hole && f.empty && v.Kind() == reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		case k == f.hole:
		case v.Kind() == reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
			f.fill(v.Elem())
		default:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			f.fill(v.Index(0))
			f.fill(v.Index(1))
		}
	case reflect.String:
		v.SetString(escapeStrings[f.n%(len(escapeStrings)-1)])
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		// Small and extreme values of both signs, halved until they fit.
		x := [...]int64{int64(f.n), -int64(f.n), math.MaxInt64, math.MinInt64}[f.n%4]
		for v.OverflowInt(x) {
			x /= 2
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x := [...]uint64{uint64(f.n), math.MaxUint64}[f.n%2]
		for v.OverflowUint(x) {
			x >>= 1
		}
		v.SetUint(x)
	default:
		f.t.Fatalf("no filler for %s: the codec has no walker for it either", v.Type())
	}
}

// filledBundle returns a bundle with every field set, bar the hole.
func filledBundle(t *testing.T, hole int, empty bool) (*Bundle, int) {
	f := &filler{t: t, hole: hole, empty: empty}
	var b Bundle
	f.fill(reflect.ValueOf(&b).Elem())
	return &b, f.holes
}

// checkCodec asserts that b encodes to encoding/json's bytes, that the
// bytes decode to what encoding/json decodes, and that both digests
// and the bundle digest match their encoding/json definitions.
func checkCodec(t *testing.T, name string, b *Bundle) {
	t.Helper()
	want, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	got := encodeBytes(t, b)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: Encode differs from json.Marshal at byte %d:\n got %.200s\nwant %.200s",
			name, firstDiff(got, want), got[firstDiff(got, want):], want[firstDiff(got, want):])
	}
	dec, err := decode(string(got))
	if err != nil {
		t.Fatalf("%s: Decode refuses Encode's bytes: %v", name, err)
	}
	var jb Bundle
	if err := json.Unmarshal(got, &jb); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, &jb) {
		t.Fatalf("%s: Decode differs from json.Unmarshal", name)
	}
	if c := b.Clone(); !reflect.DeepEqual(c, &jb) {
		t.Fatalf("%s: Clone differs from the JSON round trip", name)
	}
	for i := range b.Entries {
		e := &b.Entries[i]
		c := *e
		c.Digest = ""
		wantEntry := jsonDigest(t, &c)
		c.Lint, c.Audit, c.Race, c.Spec = nil, nil, nil, nil
		wantCode := jsonDigest(t, &c)
		d, cd, err := (&codec{}).digests(e)
		if err != nil || d != wantEntry || cd != wantCode {
			t.Fatalf("%s: entry %d: digests %s, %s (%v), encoding/json %s, %s", name, i, d, cd, err, wantEntry, wantCode)
		}
		if cd, err := CodeDigest(e); err != nil || cd != wantCode {
			t.Fatalf("%s: entry %d: CodeDigest %s (%v), encoding/json %s", name, i, cd, err, wantCode)
		}
	}
	digests := make([]string, len(b.Entries))
	for i := range b.Entries {
		digests[i] = b.Entries[i].Digest
	}
	if b.Entries == nil {
		digests = nil
	}
	wantBundle := jsonDigest(t, struct {
		Version   int      `json:"version"`
		PublicKey string   `json:"public_key"`
		Entries   []string `json:"entries"`
	}{b.Version, b.PublicKey, digests})
	if got := bundleDigest(b.Version, b.PublicKey, digests); got != wantBundle {
		t.Fatalf("%s: bundle digest %s, encoding/json %s", name, got, wantBundle)
	}
}

func jsonDigest(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// specBundleOnce builds the 28-entry elide + specialize bundle.
var specBundleOnce = sync.OnceValues(func() (*Bundle, error) {
	b, err := Build(releaseSpecs(), 2)
	if err != nil {
		return nil, err
	}
	return b, b.Seal(testKey)
})

// TestCodecMatchesEncodingJSON: the codec writes encoding/json's bytes
// and reads them back as encoding/json does, for a bundle with every
// exported field set (so a field added to any bundled type and not to
// the codec fails here), for the same bundle with each slice and
// pointer in turn nil or empty, and for the default trio and the
// 28-entry :spec bundle.
func TestCodecMatchesEncodingJSON(t *testing.T) {
	full, holes := filledBundle(t, -1, false)
	checkCodec(t, "filled", full)
	for k := 0; k < holes; k++ {
		for _, empty := range []bool{false, true} {
			b, _ := filledBundle(t, k, empty)
			checkCodec(t, "filled with a hole", b)
		}
	}

	trio, err := Build([]BuildSpec{
		{Workload: "backprop", Elide: true}, {Workload: "needle", Elide: true}, {Workload: "nn", Elide: true},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := trio.Seal(testKey); err != nil {
		t.Fatal(err)
	}
	checkCodec(t, "trio", trio)
	spec, err := specBundleOnce()
	if err != nil {
		t.Fatal(err)
	}
	checkCodec(t, "spec", spec)
	if len(spec.Entries) != 28 {
		t.Fatalf("%d :spec entries, want 28", len(spec.Entries))
	}
}

// TestAppendStringMatchesEncodingJSON: string escaping agrees with
// encoding/json for every single byte, every rune class, and bytes
// that are not valid UTF-8 (which only the encoder sees: the decoder
// refuses their U+FFFD escape, since it would not re-encode as itself).
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	cases := append([]string(nil), escapeStrings...)
	for b := 0; b < 256; b++ {
		cases = append(cases, string([]byte{byte(b)}), "a"+string([]byte{byte(b)})+"z")
	}
	for _, r := range []rune{0x7ff, 0x800, 0xfffd, 0xffff, 0x10000, 0x10ffff, lineSep - 1, lineSep, paraSep, paraSep + 1} {
		cases = append(cases, string(r))
	}
	cases = append(cases, "\xed\xa0\x80", "\xf4\x90\x80\x80", "ok\xc3", "\xc3(")
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendString(%q) = %s, encoding/json %s", s, got, want)
		}
		c := &codec{dec: true, s: string(want)}
		got := c.decString()
		if !utf8.ValidString(s) {
			if c.err == nil {
				t.Fatalf("decString accepted %s, which re-encodes differently", want)
			}
			continue
		}
		if c.err != nil || got != s || c.i != len(want) {
			t.Fatalf("decString(%s) = %q, %v", want, got, c.err)
		}
	}
}

// TestDecodeRefusesNonCanonical: every departure from Encode's bytes is
// a typed Malformed rejection, the edits check.sh and the fuzz corpus
// exercise among them.
func TestDecodeRefusesNonCanonical(t *testing.T) {
	b := sealedBundle(t)
	canon := string(encodeBytes(t, b))
	if _, err := decode(canon); err != nil {
		t.Fatalf("canonical bundle refused: %v", err)
	}
	edits := map[string]string{
		"whitespace":       strings.Replace(canon, `,"mode":`, `, "mode":`, 1),
		"no newline":       strings.TrimSuffix(canon, "\n"),
		"crlf":             strings.TrimSuffix(canon, "\n") + "\r\n",
		"unknown key":      strings.Replace(canon, `"mode":`, `"m0de":`, 1),
		"reordered keys":   strings.Replace(canon, `"name":"backprop","mechanism":"lmi"`, `"mechanism":"lmi","name":"backprop"`, 1),
		"duplicate key":    strings.Replace(canon, `"mode":"lmi"`, `"mode":"lmi","mode":"lmi"`, 1),
		"elided false":     strings.Replace(canon, `"elided":true`, `"elided":false`, 1),
		"leading zero":     strings.Replace(canon, `"version":1`, `"version":01`, 1),
		"plus sign":        strings.Replace(canon, `"version":1`, `"version":+1`, 1),
		"negative zero":    strings.Replace(canon, `"diags":0`, `"diags":-0`, 1),
		"exponent":         strings.Replace(canon, `"version":1`, `"version":1e0`, 1),
		"uint32 overflow":  strings.Replace(canon, `"frame_size":`, `"frame_size":4294967296`, 1),
		"escaped letter":   strings.Replace(canon, `"mode":"lmi"`, `"mode":"\u006cmi"`, 1),
		"escaped slash":    strings.Replace(canon, `"mode":"lmi"`, `"mode":"lm\/i"`, 1),
		"raw html":         strings.Replace(canon, `"mode":"lmi"`, `"mode":"l<mi"`, 1),
		"upper-case hex":   strings.Replace(canon, `"mode":"lmi"`, `"mode":"\u003Cmi"`, 1),
		"null omitempty":   strings.Replace(canon, `,"lint_cert":`, `,"spec_contract":null,"lint_cert":`, 1),
		"empty omitempty":  strings.Replace(canon, `,"lint_cert":`, `,"spec_code":[],"lint_cert":`, 1),
		"trailing comma":   strings.Replace(canon, `"}]`, `"},]`, 1),
		"trailing garbage": canon + "{}",
	}
	for name, s := range edits {
		if s == canon {
			t.Fatalf("%s: edit changed nothing", name)
		}
		if _, err := decode(s); reason(t, err) != ReasonMalformed {
			t.Fatalf("%s: reason %q, want malformed", name, RejectionReason(err))
		}
	}
}

// TestCloneIsDeep: a clone shares no mutable state with its source.
func TestCloneIsDeep(t *testing.T) {
	src, _ := filledBundle(t, -1, false)
	want := encodeBytes(t, src)
	c := src.Clone()
	e := &c.Entries[0]
	e.Code[0] = "changed"
	e.SourceMap[0].Index++
	e.Meta.ParamPtrs[0] = false
	e.Meta.StackBuffers[0].Size++
	e.SpecContract.CountMax++
	e.SpecCertificate.Transforms[0].Drops[0].PC++
	e.SpecCertificate.Transforms[0].Unroll.Trip++
	e.SpecCertificate.Provenance[0]++
	e.Lint.Diags++
	if !bytes.Equal(encodeBytes(t, src), want) {
		t.Fatal("mutating the clone changed its source")
	}
	bad := &Bundle{Entries: []Entry{{Name: "\xff"}}}
	if bad.Clone() != nil {
		t.Fatal("Clone of a bundle with invalid UTF-8 returned a bundle")
	}
}

// FuzzDecode: every input is either a typed Malformed rejection, or
// encoding/json reads the same bundle from it and Encode reproduces it
// byte for byte. Plain go test replays the seeds below and the corpus
// in testdata/fuzz/FuzzDecode.
func FuzzDecode(f *testing.F) {
	b, err := buildOnce()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeBytes(f, b))
	f.Add(encodeBytes(f, &Bundle{Version: Version}))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(bytes.NewReader(data))
		if err != nil {
			if r := RejectionReason(err); r != ReasonMalformed {
				t.Fatalf("refused with reason %q, want malformed: %v", r, err)
			}
			return
		}
		var want Bundle
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("Decode accepted what encoding/json refuses: %v", err)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Fatal("Decode and encoding/json read different bundles")
		}
		if enc := encodeBytes(t, got); !bytes.Equal(enc, data) {
			t.Fatalf("Encode does not reproduce the accepted input: first difference at byte %d", firstDiff(enc, data))
		}
	})
}
