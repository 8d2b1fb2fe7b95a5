package core

// EC models the Extent Checker placed in the load/store unit (paper §VII,
// Fig. 10). At every memory access to a protected region the EC inspects
// the extent field of the address operand:
//
//   - extent == 0: the pointer was invalidated — either by the OCU after
//     an out-of-bounds arithmetic operation (spatial violation, reported
//     now under delayed termination, §XII-A) or by the compiler-inserted
//     nullification after free()/scope exit (temporal violation, §VIII).
//     The EC raises a fault and the access is suppressed.
//   - extent != 0: the access proceeds. With the optional liveness tracker
//     attached (§XII-C), the EC additionally verifies that the buffer's UM
//     identifier is still registered, which extends temporal safety to
//     copied pointers.
//
// The access size is also checked against the buffer limit so that a
// multi-byte access straddling the end of the size class faults; with
// 2^n-aligned buffers this is a comparison against the modifiable mask and
// costs no metadata access.
type EC struct {
	// Codec configures the pointer format.
	Codec Codec

	// Tracker, when non-nil, enables the enhanced UAF protection of
	// Algorithm 1: dereferences consult the UM membership table.
	Tracker *LivenessTracker

	// Stats accumulates check activity.
	Stats ECStats
}

// ECStats counts EC activity.
type ECStats struct {
	// Checks is the number of dereferences inspected.
	Checks uint64
	// Faults is the number of dereferences rejected.
	Faults uint64
}

// NewEC returns an EC using the default pointer codec and no liveness
// tracker.
func NewEC() *EC { return &EC{Codec: DefaultCodec} }

// CheckAccess validates a size-byte access through pointer p. It returns
// nil when the access is permitted and the fault when it must be
// suppressed.
func (e *EC) CheckAccess(p Pointer, size uint64) *Fault {
	e.Stats.Checks++
	ext := p.Extent()
	if ext == ExtentInvalid {
		e.Stats.Faults++
		// The extent does not record *why* it is zero; hardware reports a
		// generic extent fault and the runtime attributes it. We classify
		// as spatial here; callers with allocator context may refine it to
		// temporal (the simulator does so via the runtime's free log).
		return NewFault(FaultSpatial, p, p.Addr(),
			"dereference of zero-extent pointer")
	}
	if e.Codec.IsDebugExtent(ext) {
		e.Stats.Faults++
		return NewFault(FaultSpatial, p, p.Addr(),
			"dereference of debug-extent pointer")
	}
	if size > 0 {
		// The last byte must lie in the pointer's size class,
		// [base, base+class) with base the address with its modifiable
		// bits cleared: Codec.InBounds of the last byte, with the extent
		// already known to be valid.
		addr := p.Addr()
		last := addr + size - 1
		class := e.Codec.SizeForExtent(ext)
		if last < addr || last-(addr&^(class-1)) >= class {
			e.Stats.Faults++
			return NewFault(FaultSpatial, p, p.Addr(),
				"access straddles end of size class")
		}
	}
	if e.Tracker != nil {
		if !e.Tracker.Live(p) {
			e.Stats.Faults++
			return NewFault(FaultTemporal, p, p.Addr(),
				"buffer deregistered from liveness table (use-after-free via copied pointer)")
		}
	}
	return nil
}
