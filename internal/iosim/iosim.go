// Package iosim provides a parametric storage-device model and a
// simulated clock. The paper's real-test-case machine (§4.3: Intel i5,
// 2 GB RAM, 36 GB swap on a spinning disk) cannot be reproduced
// directly at GB scale inside CI, so both the demand-paging baseline
// (package vm) and the out-of-core manager's simulated store charge
// their I/O against the same device model: per-operation positioning
// latency plus size-proportional transfer time. The comparison between
// the two designs is then a statement about the I/O each issues —
// page-granular random faults versus whole-vector amortised transfers —
// which is exactly the mechanism the paper credits for its speedups.
package iosim

import (
	"fmt"
	"sync"
	"time"
)

// Device models a storage device with positioning latency and sequential
// bandwidth.
type Device struct {
	// Name labels the device in reports.
	Name string
	// Latency is charged once per I/O operation (seek + rotational delay
	// for disks, request overhead for SSDs).
	Latency time.Duration
	// Bandwidth is the sequential transfer rate in bytes per second.
	Bandwidth float64
}

// HDD returns a conservative 7200-rpm spinning disk model: 8 ms average
// positioning, 120 MB/s sequential bandwidth — the class of device in
// the paper's test machine.
func HDD() Device {
	return Device{Name: "hdd", Latency: 8 * time.Millisecond, Bandwidth: 120e6}
}

// SSD returns a SATA-SSD model: 80 µs request latency, 500 MB/s.
func SSD() Device {
	return Device{Name: "ssd", Latency: 80 * time.Microsecond, Bandwidth: 500e6}
}

// TransferTime returns the modelled duration of one I/O of the given
// size: Latency + size/Bandwidth.
func (d Device) TransferTime(bytes int64) time.Duration {
	if bytes < 0 {
		bytes = 0
	}
	t := d.Latency
	if d.Bandwidth > 0 {
		t += time.Duration(float64(bytes) / d.Bandwidth * float64(time.Second))
	}
	return t
}

// Clock accumulates simulated time. It is the single ledger a workload
// charges all modelled I/O against; compute time measured on the real
// clock can be added by the harness to form a total elapsed estimate.
// Charging is mutex-protected because the manager's writer goroutine
// charges the same clock concurrently with the compute thread.
type Clock struct {
	mu      sync.Mutex
	elapsed time.Duration
	ops     int64
	bytes   int64
}

// Charge adds one I/O of the given size on device d.
func (c *Clock) Charge(d Device, bytes int64) {
	t := d.TransferTime(bytes)
	c.mu.Lock()
	c.elapsed += t
	c.ops++
	c.bytes += bytes
	c.mu.Unlock()
}

// Advance adds an arbitrary duration (e.g. modelled CPU work).
func (c *Clock) Advance(d time.Duration) {
	c.mu.Lock()
	c.elapsed += d
	c.mu.Unlock()
}

// Elapsed returns the accumulated simulated time.
func (c *Clock) Elapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.elapsed
}

// Ops returns the number of charged I/O operations.
func (c *Clock) Ops() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops
}

// Bytes returns the total bytes charged.
func (c *Clock) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Reset zeroes the ledger.
func (c *Clock) Reset() {
	c.mu.Lock()
	c.elapsed, c.ops, c.bytes = 0, 0, 0
	c.mu.Unlock()
}

// String summarises the ledger.
func (c *Clock) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("%v over %d ops, %d bytes", c.elapsed, c.ops, c.bytes)
}
