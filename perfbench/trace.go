package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request or job
// share Req; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Req    uint64        `json:"req,omitempty"`
	Name   string        `json:"name"`
	Tag    string        `json:"tag,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay no recording cost.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	nextID uint64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// do runs fn inside a span named name (tag qualifies it, e.g. the
// mechanism) under parent, for request req. fn receives the span's ID
// so it can open children. do returns fn's wall time whether or not
// the tracer records.
func (t *tracer) do(name, tag string, parent, req uint64, fn func(id uint64)) time.Duration {
	if t == nil {
		start := time.Now()
		fn(0)
		return time.Since(start)
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	start := time.Since(t.origin)
	fn(id)
	end := time.Since(t.origin)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Tag: tag, Start: start, End: end})
	t.mu.Unlock()
	return end - start
}

// record adds a span whose interval was measured by the caller (an
// open-loop request's life starts at its scheduled send time, before
// any goroutine touches it) and returns its ID.
func (t *tracer) record(name, tag string, parent, req uint64, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.spans = append(t.spans, span{ID: t.nextID, Parent: parent, Req: req, Name: name, Tag: tag,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
	return t.nextID
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot returns the recorded spans ordered by start time.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// total sums the durations of the spans named name (and tagged tag,
// when tag is not empty).
func (t *tracer) total(name, tag string) time.Duration {
	var sum time.Duration
	for _, s := range t.snapshot() {
		if s.Name == name && (tag == "" || s.Tag == tag) {
			sum += s.dur()
		}
	}
	return sum
}

// durations lists the durations of the spans named name and tagged tag.
func (t *tracer) durations(name, tag string) []time.Duration {
	var out []time.Duration
	for _, s := range t.snapshot() {
		if s.Name == name && (tag == "" || s.Tag == tag) {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes derives each span's self time: its duration minus the part
// of its interval covered by its children (overlapping children, such
// as parallel jobs under one sweep, count once; a child's time outside
// its parent's interval does not count).
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered time.Duration
		var curS, curE time.Duration
		open := false
		for _, c := range cs {
			c.Start, c.End = max(c.Start, s.Start), min(c.End, s.End)
			if c.End <= c.Start {
				continue
			}
			if open && c.Start <= curE {
				if c.End > curE {
					curE = c.End
				}
				continue
			}
			if open {
				covered += curE - curS
			}
			curS, curE, open = c.Start, c.End, true
		}
		if open {
			covered += curE - curS
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// write dumps the run metadata, every span with its self time, and the
// per-name self-time totals as one JSON document.
func (t *tracer) write(path string, meta map[string]any) error {
	spans := t.snapshot()
	self := selfTimes(spans)
	type row struct {
		span
		SelfNS time.Duration `json:"self_ns"`
	}
	rows := make([]row, len(spans))
	byName := map[string]time.Duration{}
	for i, s := range spans {
		rows[i] = row{span: s, SelfNS: self[s.ID]}
		byName[s.Name] += self[s.ID]
	}
	doc := struct {
		Meta       map[string]any           `json:"meta"`
		SelfByName map[string]time.Duration `json:"self_ns_by_name"`
		Spans      []row                    `json:"spans"`
	}{meta, byName, rows}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// cpuProfile runs fn under the runtime CPU profiler and returns the
// gzipped profile.
func cpuProfile(fn func()) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), nil
}

// fileGroup names a set of source files by path suffix ("internal/mem/"
// matches the whole package, "internal/sim/lsu.go" one file).
type fileGroup struct {
	name     string
	suffixes []string
}

// cpuShares attributes each profile sample to the innermost frame that
// lies in one of the repository's internal packages, then returns the
// share of samples whose frame falls in each group. Runtime frames
// (allocation, maps) count toward the repository code that called
// them; samples with no repository frame (GC workers, the scheduler)
// count only toward the total.
func cpuShares(profile []byte, groups []fileGroup) (map[string]float64, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		total += s.count
		file := ""
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if f := p.funcFile[fn]; strings.Contains(f, "internal/") {
					file = f
					break frames
				}
			}
		}
		for _, g := range groups {
			if matchAny(file, g.suffixes) {
				counts[g.name] += s.count
				break
			}
		}
	}
	out := map[string]float64{}
	for _, g := range groups {
		if total > 0 {
			out[g.name] = float64(counts[g.name]) / float64(total)
		}
	}
	return out, nil
}

func matchAny(file string, suffixes []string) bool {
	for _, s := range suffixes {
		if strings.HasSuffix(s, "/") && strings.Contains(file, s) || strings.HasSuffix(file, s) {
			return true
		}
	}
	return false
}

// profile is the part of a pprof profile.proto the attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location ID -> function IDs, innermost first
	funcFile map[uint64]string   // function ID -> source file
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
}

// parseProfile decodes the gzipped profile.proto runtime/pprof writes
// (a minimal protobuf reader: only the fields the attribution reads).
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcFile: map[uint64]string{}}
	var strs []string
	funcFileIdx := map[uint64]int64{}
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			var values []int64
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = append(s.locs, pbUints(w, v, b)...)
				case 2:
					for _, x := range pbUints(w, v, b) {
						values = append(values, int64(x))
					}
				}
				return nil
			})
			if len(values) > 0 {
				s.count = values[0]
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var file int64
			err := pbFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					file = int64(v)
				}
				return nil
			})
			funcFileIdx[id] = file
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcFileIdx {
		if idx >= 0 && idx < int64(len(strs)) {
			p.funcFile[id] = strs[idx]
		}
	}
	return p, nil
}

// pbFields walks the top-level fields of a protobuf message: varints
// arrive in v, length-delimited payloads in b.
func pbFields(buf []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := pbVarint(buf)
		if n == 0 {
			return fmt.Errorf("profile: bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = pbVarint(buf)
			if n == 0 {
				return fmt.Errorf("profile: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := pbVarint(buf)
			if n == 0 || uint64(len(buf)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbUints decodes a repeated uint64 field in either encoding.
func pbUints(wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
