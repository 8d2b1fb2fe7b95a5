package bundle

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"lmi/internal/bounds"
	"lmi/internal/compiler"
	"lmi/internal/isa"
	"lmi/internal/peval"
)

// The canonical codec. Each type's field list is written once, as a
// walk over a codec that either appends the value's bytes (encode) or
// demands exactly those bytes from its input and stores the value
// (decode), so the two directions cannot drift apart. The bytes are
// the ones encoding/json's Marshal writes for the same types, tags and
// omitempty rules: the struct tags still define the format, and the
// tests keep encoding/json as the oracle for both directions.
//
// The decoder accepts only what the encoder writes: no whitespace,
// keys in field order, no unknown or repeated key, an omitempty field
// only when it is non-empty, integers without a plus sign, -0 or
// leading zeros and in range for their field, and strings escaped
// exactly as the encoder escapes them. Anything else is a typed
// ReasonMalformed rejection. Decoded strings are cut from the one
// input string.

// codec walks a value in one of two directions; dec selects decoding.
type codec struct {
	dec bool
	// buf is the encoder's output.
	buf []byte
	// s is the decoder's input, i its read offset and err its first
	// failure; after a failure every decode step is a no-op.
	s   string
	i   int
	err error
}

// clearedDigest ends an entry's encoding with its Digest field
// cleared: the tail of both digest preimages.
const clearedDigest = `,"digest":""}`

// encodeBuffers recycles encode buffers, as encoding/json recycles its
// own: growing a fresh buffer to a bundle's size (711 KB for the
// 28-entry :spec bundle) leaves several times that in dead buffers on
// every call.
var encodeBuffers = sync.Pool{New: func() any { return new([]byte) }}

// withEncoding calls use with b's canonical bytes, the trailing newline
// included, in a recycled buffer that use must not keep.
func withEncoding(b *Bundle, use func([]byte) error) error {
	p := encodeBuffers.Get().(*[]byte)
	c := &codec{buf: (*p)[:0]}
	c.bundle(b)
	c.lit("\n")
	err := use(c.buf)
	*p = c.buf
	encodeBuffers.Put(p)
	return err
}

// decode parses a whole canonical bundle, trailing newline included.
func decode(s string) (*Bundle, error) {
	c := &codec{dec: true, s: s}
	var b Bundle
	c.bundle(&b)
	c.lit("\n")
	if c.err == nil && c.i != len(s) {
		c.fail("trailing data")
	}
	if c.err != nil {
		return nil, &RejectError{Reason: ReasonMalformed, Detail: c.err.Error()}
	}
	return &b, nil
}

// digests returns the entry digest and the code digest of e from one
// encoding, with c.buf as scratch. The code-digest preimage is the
// entry's bytes up to the end of its specialization payload followed
// by clearedDigest; the entry-digest preimage continues the same
// prefix with the certificates. The prefix is hashed once and the hash
// state saved across the fork.
func (c *codec) digests(e *Entry) (entry, code string, err error) {
	c.buf = c.buf[:0]
	c.entryHead(e)
	h := sha256.New()
	h.Write(c.buf)
	state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		return "", "", fmt.Errorf("bundle: digests of %s: %w", e.Key(), err)
	}
	h.Write([]byte(clearedDigest))
	var sum [sha256.Size]byte
	code = hex.EncodeToString(h.Sum(sum[:0]))
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		return "", "", fmt.Errorf("bundle: digests of %s: %w", e.Key(), err)
	}
	c.buf = c.buf[:0]
	c.entryCerts(e)
	c.lit(clearedDigest)
	h.Write(c.buf)
	entry = hex.EncodeToString(h.Sum(sum[:0]))
	return entry, code, nil
}

// bundleDigest computes the bundle digest over the version, signer,
// and the sorted entry digest list. Entry content is covered
// transitively through the entry digests.
func bundleDigest(version int, publicKey string, entryDigests []string) string {
	c := &codec{}
	c.lit(`{"version":`)
	c.int(&version)
	c.lit(`,"public_key":`)
	c.str(&publicKey)
	c.lit(`,"entries":`)
	list(c, &entryDigests, (*codec).str)
	c.lit(`}`)
	sum := sha256.Sum256(c.buf)
	return hex.EncodeToString(sum[:])
}

// The field lists. Keys and punctuation are literals; a "," opens
// every key after the first.

func (c *codec) bundle(b *Bundle) {
	c.lit(`{"version":`)
	c.int(&b.Version)
	c.lit(`,"entries":`)
	list(c, &b.Entries, (*codec).entry)
	c.lit(`,"public_key":`)
	c.str(&b.PublicKey)
	c.lit(`,"digest":`)
	c.str(&b.Digest)
	c.lit(`,"signature":`)
	c.str(&b.Signature)
	c.lit(`}`)
}

func (c *codec) entry(e *Entry) {
	c.entryHead(e)
	c.entryCerts(e)
	c.lit(`,"digest":`)
	c.str(&e.Digest)
	c.lit(`}`)
}

// entryHead walks an entry up to the end of its specialization
// payload: the part both digests cover.
func (c *codec) entryHead(e *Entry) {
	c.lit(`{"name":`)
	c.str(&e.Name)
	c.lit(`,"mechanism":`)
	c.str(&e.Mechanism)
	c.lit(`,"mode":`)
	c.str(&e.Mode)
	if c.opt(`,"elided":`, e.Elided) {
		c.lit("true")
		e.Elided = true
	}
	c.lit(`,"code":`)
	list(c, &e.Code, (*codec).str)
	c.lit(`,"meta":`)
	c.meta(&e.Meta)
	c.lit(`,"source_map":`)
	list(c, &e.SourceMap, (*codec).sourceLoc)
	c.lit(`,"contract":`)
	c.contract(&e.Contract)
	if c.opt(`,"spec_code":`, len(e.SpecCode) > 0) {
		optList(c, &e.SpecCode, (*codec).str)
	}
	if c.opt(`,"spec_contract":`, e.SpecContract != nil) {
		optPtr(c, &e.SpecContract, (*codec).contract)
	}
	if c.opt(`,"spec_certificate":`, e.SpecCertificate != nil) {
		optPtr(c, &e.SpecCertificate, (*codec).certificate)
	}
}

// entryCerts walks an entry's certificate attestations.
func (c *codec) entryCerts(e *Entry) {
	if c.opt(`,"lint_cert":`, e.Lint != nil) {
		optPtr(c, &e.Lint, func(c *codec, l *LintCert) {
			c.lit(`{"code_digest":`)
			c.str(&l.CodeDigest)
			c.lit(`,"diags":`)
			c.int(&l.Diags)
			c.lit(`}`)
		})
	}
	if c.opt(`,"audit_cert":`, e.Audit != nil) {
		optPtr(c, &e.Audit, func(c *codec, a *AuditCert) {
			c.lit(`{"code_digest":`)
			c.str(&a.CodeDigest)
			c.lit(`,"diags":`)
			c.int(&a.Diags)
			c.lit(`,"elided":`)
			c.int(&a.Elided)
			c.lit(`}`)
		})
	}
	if c.opt(`,"race_cert":`, e.Race != nil) {
		optPtr(c, &e.Race, func(c *codec, r *RaceCert) {
			c.lit(`{"code_digest":`)
			c.str(&r.CodeDigest)
			c.lit(`,"diags":`)
			c.int(&r.Diags)
			c.lit(`,"shared_accesses":`)
			c.int(&r.SharedAccesses)
			c.lit(`,"pairs_tested":`)
			c.int(&r.PairsTested)
			c.lit(`,"phases":`)
			c.int(&r.Phases)
			c.lit(`}`)
		})
	}
	if c.opt(`,"spec_cert":`, e.Spec != nil) {
		optPtr(c, &e.Spec, func(c *codec, s *SpecCert) {
			c.lit(`{"code_digest":`)
			c.str(&s.CodeDigest)
			c.lit(`,"diags":`)
			c.int(&s.Diags)
			c.lit(`,"shape":`)
			c.str(&s.Shape)
			c.lit(`,"transforms":`)
			c.int(&s.Transforms)
			c.lit(`,"residual_instrs":`)
			c.int(&s.ResidualInstrs)
			c.lit(`}`)
		})
	}
}

func (c *codec) meta(m *ProgramMeta) {
	c.lit(`{"frame_size":`)
	c.uint32(&m.FrameSize)
	c.lit(`,"shared_size":`)
	c.uint32(&m.SharedSize)
	c.lit(`,"num_regs":`)
	c.int(&m.NumRegs)
	c.lit(`,"num_params":`)
	c.int(&m.NumParams)
	if c.opt(`,"param_ptrs":`, len(m.ParamPtrs) > 0) {
		optList(c, &m.ParamPtrs, (*codec).bool)
	}
	c.lit(`,"stack_ptr_const":`)
	c.int(&m.StackPtrConst)
	c.lit(`,"param_base":`)
	c.int(&m.ParamBase)
	if c.opt(`,"stack_buffers":`, len(m.StackBuffers) > 0) {
		optList(c, &m.StackBuffers, func(c *codec, sb *isa.StackBuffer) {
			c.lit(`{"Offset":`)
			c.uint32(&sb.Offset)
			c.lit(`,"Size":`)
			c.uint32(&sb.Size)
			c.lit(`,"Extent":`)
			c.uint8(&sb.Extent)
			c.lit(`}`)
		})
	}
	c.lit(`}`)
}

func (c *codec) sourceLoc(l *compiler.SourceLoc) {
	c.lit(`{"Block":`)
	c.int((*int)(&l.Block))
	c.lit(`,"Index":`)
	c.int(&l.Index)
	c.lit(`,"Fact":`)
	c.bool(&l.Fact)
	c.lit(`,"Operand":`)
	c.int(&l.Operand)
	c.lit(`}`)
}

func (c *codec) contract(k *bounds.Contract) {
	c.lit(`{"CountParam":`)
	c.int(&k.CountParam)
	c.lit(`,"CountMin":`)
	c.int64(&k.CountMin)
	c.lit(`,"CountMax":`)
	c.int64(&k.CountMax)
	c.lit(`,"PtrBytesPerCount":`)
	c.int64(&k.PtrBytesPerCount)
	c.lit(`,"BlockDimX":`)
	c.int64(&k.BlockDimX)
	c.lit(`,"GridDimX":`)
	c.int64(&k.GridDimX)
	c.lit(`,"BlockDimY":`)
	c.int64(&k.BlockDimY)
	c.lit(`,"GridDimY":`)
	c.int64(&k.GridDimY)
	c.lit(`}`)
}

func (c *codec) certificate(p *peval.Certificate) {
	c.lit(`{"name":`)
	c.str(&p.Name)
	c.lit(`,"shape":`)
	c.str(&p.Shape)
	c.lit(`,"contract":`)
	c.contract(&p.Contract)
	c.lit(`,"orig_instrs":`)
	c.int(&p.OrigInstrs)
	c.lit(`,"residual_instrs":`)
	c.int(&p.ResidualInstrs)
	c.lit(`,"transforms":`)
	list(c, &p.Transforms, (*codec).transform)
	c.lit(`,"provenance":`)
	list(c, &p.Provenance, (*codec).int)
	c.lit(`}`)
}

func (c *codec) transform(t *peval.Transform) {
	c.lit(`{"kind":`)
	c.str(&t.Kind)
	c.lit(`,"pc":`)
	c.int(&t.PC)
	c.lit(`,"imm":`)
	c.int64(&t.Imm)
	if c.opt(`,"drops":`, len(t.Drops) > 0) {
		optList(c, &t.Drops, func(c *codec, d *peval.Drop) {
			c.lit(`{"pc":`)
			c.int(&d.PC)
			c.lit(`,"reason":`)
			c.str(&d.Reason)
			c.lit(`}`)
		})
	}
	if c.opt(`,"unroll":`, t.Unroll != nil) {
		optPtr(c, &t.Unroll, func(c *codec, u *peval.UnrollInfo) {
			c.lit(`{"head":`)
			c.int(&u.Head)
			c.lit(`,"body_start":`)
			c.int(&u.BodyStart)
			c.lit(`,"body_end":`)
			c.int(&u.BodyEnd)
			c.lit(`,"exit":`)
			c.int(&u.Exit)
			c.lit(`,"trip":`)
			c.int64(&u.Trip)
			c.lit(`,"ind_reg":`)
			c.uint8((*uint8)(&u.IndReg))
			c.lit(`}`)
		})
	}
	c.lit(`}`)
}

// The walkers.

func (c *codec) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("non-canonical bundle at byte %d: %s", c.i, what)
	}
}

// eat consumes l if the input continues with it (decode only).
func (c *codec) eat(l string) bool {
	if c.err == nil && strings.HasPrefix(c.s[c.i:], l) {
		c.i += len(l)
		return true
	}
	return false
}

// lit writes, or demands, literal bytes: punctuation and keys.
func (c *codec) lit(l string) {
	if !c.dec {
		c.buf = append(c.buf, l...)
	} else if !c.eat(l) && c.err == nil {
		have := c.s[c.i:min(c.i+len(l), len(c.s))]
		c.fail(fmt.Sprintf("want %q, have %q", l, have))
	}
}

// opt walks an omitempty field's key: the encoder writes it when the
// field is non-empty, the decoder reports whether the input has it.
// The caller walks the value exactly when opt returns true.
func (c *codec) opt(key string, nonEmpty bool) bool {
	if !c.dec {
		if nonEmpty {
			c.buf = append(c.buf, key...)
		}
		return nonEmpty
	}
	return c.eat(key)
}

// list walks a slice written even when empty: null for nil, [] for an
// empty slice.
func list[T any](c *codec, s *[]T, elem func(*codec, *T)) {
	if !c.dec {
		if *s == nil {
			c.buf = append(c.buf, "null"...)
			return
		}
		c.buf = append(c.buf, '[')
		for i := range *s {
			if i > 0 {
				c.buf = append(c.buf, ',')
			}
			elem(c, &(*s)[i])
		}
		c.buf = append(c.buf, ']')
		return
	}
	if c.eat("null") {
		return
	}
	c.lit("[")
	if c.eat("]") {
		*s = []T{}
		return
	}
	elems(c, s, elem)
}

// optList walks the value of an omitempty slice field that opt found:
// the decoder refuses null and [] there, which the encoder omits.
func optList[T any](c *codec, s *[]T, elem func(*codec, *T)) {
	if !c.dec {
		list(c, s, elem)
		return
	}
	c.lit("[")
	elems(c, s, elem)
}

// elems decodes one or more comma-separated elements and the closing
// bracket.
func elems[T any](c *codec, s *[]T, elem func(*codec, *T)) {
	var zero T
	for c.err == nil {
		*s = append(*s, zero)
		elem(c, &(*s)[len(*s)-1])
		if !c.eat(",") {
			c.lit("]")
			return
		}
	}
}

// optPtr walks the value of an omitempty pointer field that opt found.
func optPtr[T any](c *codec, p **T, walk func(*codec, *T)) {
	if c.dec {
		*p = new(T)
	}
	walk(c, *p)
}

// int, int64, uint32 and uint8 walk integers; each decoder refuses a
// value outside its field's range.
func (c *codec) int(p *int) {
	if !c.dec {
		c.buf = strconv.AppendInt(c.buf, int64(*p), 10)
		return
	}
	*p = int(c.decInt(math.MinInt, math.MaxInt))
}

func (c *codec) int64(p *int64) {
	if !c.dec {
		c.buf = strconv.AppendInt(c.buf, *p, 10)
		return
	}
	*p = c.decInt(math.MinInt64, math.MaxInt64)
}

func (c *codec) uint32(p *uint32) {
	if !c.dec {
		c.buf = strconv.AppendUint(c.buf, uint64(*p), 10)
		return
	}
	*p = uint32(c.decUint(math.MaxUint32))
}

func (c *codec) uint8(p *uint8) {
	if !c.dec {
		c.buf = strconv.AppendUint(c.buf, uint64(*p), 10)
		return
	}
	*p = uint8(c.decUint(math.MaxUint8))
}

func (c *codec) bool(p *bool) {
	if !c.dec {
		c.buf = strconv.AppendBool(c.buf, *p)
		return
	}
	switch {
	case c.eat("true"):
		*p = true
	case c.eat("false"):
		*p = false
	default:
		c.fail("want a boolean")
	}
}

func (c *codec) str(p *string) {
	if !c.dec {
		c.buf = appendString(c.buf, *p)
		return
	}
	*p = c.decString()
}

// decUint parses a canonical decimal magnitude no larger than hi: at
// least one digit, no leading zero.
func (c *codec) decUint(hi uint64) uint64 {
	if c.err != nil {
		return 0
	}
	s, i := c.s, c.i
	if i >= len(s) || s[i] < '0' || s[i] > '9' {
		c.fail("want an integer")
		return 0
	}
	if s[i] == '0' {
		if i+1 < len(s) && s[i+1] >= '0' && s[i+1] <= '9' {
			c.fail("leading zero")
			return 0
		}
		c.i++
		return 0
	}
	var v uint64
	for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		d := uint64(s[i] - '0')
		if v > (hi-d)/10 {
			c.fail("integer out of range")
			return 0
		}
		v = v*10 + d
	}
	c.i = i
	return v
}

// decInt parses a canonical decimal integer in [lo, hi] (lo < 0 < hi).
func (c *codec) decInt(lo, hi int64) int64 {
	if !c.eat("-") {
		return int64(c.decUint(uint64(hi)))
	}
	m := c.decUint(uint64(-(lo + 1)) + 1)
	if c.err == nil && m == 0 {
		c.fail("negative zero")
	}
	return int64(-m)
}

// plain marks the ASCII bytes a string carries unescaped: everything
// printable but the quote, the backslash and the HTML-sensitive <, >
// and &, which encoding/json escapes by default. DEL is plain.
var plain = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = !strings.ContainsRune(`"\<>&`, rune(b))
	}
	return t
}()

const (
	hexDigits = "0123456789abcdef"
	// lineSep and paraSep (U+2028, U+2029) are valid in JSON strings
	// but not in JavaScript source, so encoding/json escapes them.
	lineSep = 0x2028
	paraSep = 0x2029
)

// appendString appends s as a quoted string escaped the way
// encoding/json's Marshal escapes it: the two-byte escapes for the
// quote, the backslash, \b, \f, \n, \r and \t; a six-byte \u escape
// for the other control bytes, for <, > and &, for lineSep and paraSep,
// and (as U+FFFD) for each byte that is not part of valid UTF-8.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if plain[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = appendEscape(dst, rune(b))
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || r == lineSep || r == paraSep {
			dst = append(dst, s[start:i]...)
			dst = appendEscape(dst, r)
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendEscape appends the six-byte escape of a 16-bit rune.
func appendEscape(dst []byte, r rune) []byte {
	return append(dst, '\\', 'u', hexDigits[r>>12&0xf], hexDigits[r>>8&0xf], hexDigits[r>>4&0xf], hexDigits[r&0xf])
}

// decString parses a quoted string in exactly appendString's form. A
// string without escapes is a substring of the input.
func (c *codec) decString() string {
	if !c.eat(`"`) {
		c.fail("want a string")
		return ""
	}
	s, start := c.s, c.i
	i := start
	var out []byte // the decoded bytes, once an escape is met
	seg := start   // the first input byte not yet in out
	for i < len(s) {
		b := s[i]
		if b < utf8.RuneSelf && plain[b] {
			i++
			continue
		}
		switch {
		case b == '"':
			c.i = i + 1
			if out == nil {
				return s[start:i]
			}
			return string(append(out, s[seg:i]...))
		case b == '\\':
			r, n := canonicalEscape(s[i:])
			if n == 0 {
				c.i = i
				c.fail("non-canonical escape")
				return ""
			}
			out = append(out, s[seg:i]...)
			out = utf8.AppendRune(out, r)
			i += n
			seg = i
		case b < utf8.RuneSelf:
			c.i = i
			c.fail("unescaped control or HTML byte in string")
			return ""
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 || r == lineSep || r == paraSep {
				c.i = i
				c.fail("invalid UTF-8 or unescaped line separator in string")
				return ""
			}
			i += size
		}
	}
	c.i = i
	c.fail("unterminated string")
	return ""
}

// canonicalEscape returns the rune the escape at the start of t stands
// for and the escape's length, or length 0 unless appendString writes
// that rune with exactly that escape. The U+FFFD escape is not
// canonical: appendString writes it only for invalid UTF-8, and it
// decodes to a valid rune that encodes as itself.
func canonicalEscape(t string) (rune, int) {
	if len(t) < 2 {
		return 0, 0
	}
	switch t[1] {
	case '"', '\\':
		return rune(t[1]), 2
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		if len(t) < 6 {
			return 0, 0
		}
		var r rune
		for _, h := range []byte(t[2:6]) {
			d := strings.IndexByte(hexDigits, h)
			if d < 0 {
				return 0, 0
			}
			r = r<<4 | rune(d)
		}
		switch r {
		case '\b', '\f', '\n', '\r', '\t':
			return 0, 0
		case '<', '>', '&', lineSep, paraSep:
			return r, 6
		}
		if r < 0x20 {
			return r, 6
		}
	}
	return 0, 0
}
