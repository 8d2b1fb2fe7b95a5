// Package trace is the dynamic-instrumentation substrate of the
// reproduction — the stand-in for NVBit in the paper's methodology
// ("CUDA traces for the simulation were generated using NVBit", §X).
//
// It provides:
//
//   - a per-instruction execution tracer that attaches to the simulator
//     ([Collector] implements sim.Tracer) and records opcode, PC, warp,
//     active mask, hint bits, and per-lane effective addresses of memory
//     operations;
//   - a compact binary on-disk format ([Writer]/[Reader]) using varint
//     encoding with base+delta address compression, in the spirit of GPU
//     trace formats;
//   - trace analyses: instruction and memory-region mixes (the Fig. 1
//     measurement, computable from a trace exactly as the paper computes
//     it from NVBit output) and a trace-driven cache replayer that
//     re-estimates hit rates without re-running the kernel (the MacSim
//     trace-driven flow).
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"lmi/internal/isa"
)

// Event is one dynamically executed warp instruction.
type Event struct {
	// PC is the instruction index in the program.
	PC int32
	// Op is the opcode.
	Op isa.Opcode
	// SM and Warp locate the execution.
	SM   int32
	Warp int32
	// ActiveMask is the lane mask the instruction executed with.
	ActiveMask uint32
	// HintA marks OCU-checked pointer operations.
	HintA bool
	// Addrs holds the effective addresses of the active lanes, in lane
	// order, for memory operations (nil otherwise).
	Addrs []uint64
}

const (
	magic   = "LMITRACE"
	version = 1
)

// Header describes the traced launch.
type Header struct {
	Kernel    string
	Grid      int32
	Block     int32
	Mechanism string
}

// Writer streams events to an io.Writer in the binary format.
type Writer struct {
	w      *bufio.Writer
	buf    []byte
	events uint64
}

// NewWriter writes the header and returns a Writer.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	tw := &Writer{w: bw, buf: make([]byte, binary.MaxVarintLen64)}
	tw.putUvarint(version)
	tw.putString(h.Kernel)
	tw.putString(h.Mechanism)
	tw.putUvarint(uint64(h.Grid))
	tw.putUvarint(uint64(h.Block))
	return tw, nil
}

func (t *Writer) putUvarint(v uint64) {
	n := binary.PutUvarint(t.buf, v)
	t.w.Write(t.buf[:n])
}

func (t *Writer) putString(s string) {
	t.putUvarint(uint64(len(s)))
	t.w.WriteString(s)
}

// WriteEvent appends one event. Addresses are delta-compressed against
// the first address of the event.
func (t *Writer) WriteEvent(e *Event) {
	t.events++
	t.putUvarint(uint64(e.PC))
	t.putUvarint(uint64(e.Op))
	t.putUvarint(uint64(e.SM))
	t.putUvarint(uint64(e.Warp))
	t.putUvarint(uint64(e.ActiveMask))
	flags := uint64(0)
	if e.HintA {
		flags |= 1
	}
	t.putUvarint(flags)
	t.putUvarint(uint64(len(e.Addrs)))
	if len(e.Addrs) > 0 {
		base := e.Addrs[0]
		t.putUvarint(base)
		for _, a := range e.Addrs[1:] {
			n := binary.PutVarint(t.buf, int64(a)-int64(base))
			t.w.Write(t.buf[:n])
		}
	}
}

// Close flushes buffered events. The event count is not stored in the
// stream; readers iterate to EOF.
func (t *Writer) Close() error { return t.w.Flush() }

// Events returns the number of events written.
func (t *Writer) Events() uint64 { return t.events }

// Reader iterates a trace stream.
type Reader struct {
	r   *bufio.Reader
	hdr Header
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(br, got); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if string(got) != magic {
		return nil, errors.New("trace: bad magic")
	}
	tr := &Reader{r: br}
	v, err := binary.ReadUvarint(br)
	if err != nil || v != version {
		return nil, fmt.Errorf("trace: unsupported version %d (err %v)", v, err)
	}
	if tr.hdr.Kernel, err = tr.readString(); err != nil {
		return nil, err
	}
	if tr.hdr.Mechanism, err = tr.readString(); err != nil {
		return nil, err
	}
	g, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	b, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	tr.hdr.Grid, tr.hdr.Block = int32(g), int32(b)
	return tr, nil
}

func (t *Reader) readString() (string, error) {
	n, err := binary.ReadUvarint(t.r)
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", errors.New("trace: oversized string")
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(t.r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// Header returns the launch description.
func (t *Reader) Header() Header { return t.hdr }

// Next decodes one event, returning io.EOF at the end of the stream.
func (t *Reader) Next(e *Event) error {
	pc, err := binary.ReadUvarint(t.r)
	if err != nil {
		return err // io.EOF at a clean boundary
	}
	rd := func() uint64 {
		v, e2 := binary.ReadUvarint(t.r)
		if e2 != nil {
			err = e2
		}
		return v
	}
	op := rd()
	smID := rd()
	warp := rd()
	mask := rd()
	flags := rd()
	nAddrs := rd()
	if err != nil {
		return fmt.Errorf("trace: truncated event: %w", err)
	}
	if nAddrs > 32 {
		return fmt.Errorf("trace: %d addresses in one event", nAddrs)
	}
	e.PC = int32(pc)
	e.Op = isa.Opcode(op)
	e.SM = int32(smID)
	e.Warp = int32(warp)
	e.ActiveMask = uint32(mask)
	e.HintA = flags&1 != 0
	e.Addrs = e.Addrs[:0]
	if nAddrs > 0 {
		base, err2 := binary.ReadUvarint(t.r)
		if err2 != nil {
			return fmt.Errorf("trace: truncated addresses: %w", err2)
		}
		e.Addrs = append(e.Addrs, base)
		for i := uint64(1); i < nAddrs; i++ {
			d, err2 := binary.ReadVarint(t.r)
			if err2 != nil {
				return fmt.Errorf("trace: truncated addresses: %w", err2)
			}
			e.Addrs = append(e.Addrs, uint64(int64(base)+d))
		}
	}
	return nil
}
