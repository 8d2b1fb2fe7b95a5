package sim

import "lmi/internal/alloc"

// Heap exposes the device heap to the package's external tests; both
// execution tiers reach it through Exec.Heap.
func (d *Device) Heap() *alloc.DeviceHeap { return d.heap }
