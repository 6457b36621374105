package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark's host is shared, and its speed is not constant: other
// tenants' load changes how fast the same instructions run, by a fifth
// within minutes and by more between hours, through the caches, memory
// bandwidth and sibling hardware threads they share. Taking the CPU time
// rather than the wall time removes the cores other tenants take away,
// not that slowdown, and a CPU time measured in one run moves with it.
//
// A run therefore also times a fixed piece of work of the benchmark's
// own, in short probes spread over the run: a small discrete-event loop
// shaped like the simulator's hot path — a binary heap of pending
// events, a state record per room, a table read and write per event —
// over a few MB that live outside the Go heap, so the probe changes
// neither the heap peak nor the collector's work. Its code and data
// belong to the benchmark, so no change to df3 moves it. The run's
// times are reported at the reference host speed: each is multiplied by
// calRefMs ÷ the median probe slice's CPU time in the run.

const (
	calEvents = 1 << 16 // pending events
	calRooms  = 1 << 14 // room records
	calTable  = 1 << 18 // table words
	// calSteps is how many events one probe slice executes.
	calSteps = 40000
	// calSlices is how many slices one probe runs back to back.
	calSlices = 3
	// calRefMs is the thread CPU time of one slice on the reference host
	// (PROVENANCE.md), whose speed every normalised time is reported at.
	calRefMs = 18.0
)

type calEvent struct {
	at   float64
	room int32
	kind int32
}

type calRoom struct {
	last, temp, load, power float64
	served, pad             int64
}

// calibrator runs the probe and keeps the CPU time of every slice.
type calibrator struct {
	mem    []byte
	events []calEvent
	heap   []int32
	rooms  []calRoom
	table  []uint32
	// slicesMs is each slice's thread CPU time, in ms, in run order.
	slicesMs []float64
	// sink keeps each slice's result, so the compiler cannot drop the
	// work.
	sink float64
}

// newCalibrator maps the probe's memory; close unmaps it.
func newCalibrator() (*calibrator, error) {
	evBytes := calEvents * int(unsafe.Sizeof(calEvent{}))
	heapBytes := calEvents * 4
	roomBytes := calRooms * int(unsafe.Sizeof(calRoom{}))
	tableBytes := calTable * 4
	mem, err := syscall.Mmap(-1, 0, evBytes+heapBytes+roomBytes+tableBytes,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, err
	}
	c := &calibrator{mem: mem}
	// Every region holds plain numbers, no pointers, so memory the
	// collector does not know about is safe to hold them.
	off := 0
	c.events = unsafe.Slice((*calEvent)(unsafe.Pointer(&mem[off])), calEvents)
	off += evBytes
	c.heap = unsafe.Slice((*int32)(unsafe.Pointer(&mem[off])), calEvents)
	off += heapBytes
	c.rooms = unsafe.Slice((*calRoom)(unsafe.Pointer(&mem[off])), calRooms)
	off += roomBytes
	c.table = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[off])), calTable)
	return c, nil
}

func (c *calibrator) close() error {
	c.events, c.heap, c.rooms, c.table = nil, nil, nil, nil
	return syscall.Munmap(c.mem)
}

// probe runs calSlices slices on one locked OS thread and records each
// slice's CPU time on that thread alone, so no other goroutine's or the
// collector's work is counted. It first finishes any collection the
// measured work left running, whose workers would share the host with
// the probe, and then runs an unrecorded slice that brings the probe's
// memory back into the caches the measured work evicted.
func (c *calibrator) probe() {
	runtime.GC()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c.sink += c.slice()
	for i := 0; i < calSlices; i++ {
		t0 := threadCPU()
		c.sink += c.slice()
		c.slicesMs = append(c.slicesMs, ms(threadCPU()-t0))
	}
}

// sliceMs is the median slice's CPU time over the run so far.
func (c *calibrator) sliceMs() float64 { return median(c.slicesMs) }

// norm converts a time measured in this run to the reference host speed.
func (c *calibrator) norm(v float64) float64 { return v * calRefMs / c.sliceMs() }

// record reports the median slice time every normalised time was
// divided by.
func (c *calibrator) record(r *report) {
	r.set("host.calibration_ms", c.sliceMs(), len(c.slicesMs))
}

// slice resets the probe's state to the same start and executes
// calSteps events, so every slice does identical work. The sequence of
// rooms and delays is a fixed hash sequence, not a random draw.
func (c *calibrator) slice() float64 {
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range c.rooms {
		c.rooms[i] = calRoom{temp: 19, power: float64(i & 7)}
	}
	for i := range c.table {
		c.table[i] = uint32(i) * 2654435761
	}
	for i := range c.events {
		v := next()
		c.events[i] = calEvent{at: float64(v>>40) * 1e-6, room: int32(v & (calRooms - 1)), kind: int32(v>>32) & 3}
		c.heap[i] = int32(i)
	}
	for i := calEvents/2 - 1; i >= 0; i-- {
		c.down(i)
	}
	acc := 0.0
	for s := 0; s < calSteps; s++ {
		ev := &c.events[c.heap[0]]
		v := next()
		r := &c.rooms[ev.room]
		dt := ev.at - r.last
		r.last = ev.at
		switch ev.kind {
		case 0: // thermal step
			r.temp += (r.power*0.05 - (r.temp-12)*0.01) * dt
		case 1: // load change
			r.load = r.load*0.9 + float64(c.table[v&(calTable-1)]&1023)*1e-3
			r.power = 1 + r.load*4
		case 2: // a served request
			r.served++
			c.table[(v>>20)&(calTable-1)] += uint32(r.served)
		default: // a message to another room
			other := &c.rooms[(v>>8)&(calRooms-1)]
			other.load += r.load * 0.01
		}
		acc += r.temp
		ev.at += 1e-3 + float64((v>>40)&4095)*1e-3
		ev.kind = int32(v>>32) & 3
		c.down(0)
	}
	return acc
}

// down restores the heap order below position i.
func (c *calibrator) down(i int) {
	h, ev := c.heap, c.events
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		j := l
		if r := l + 1; r < n && ev[h[r]].at < ev[h[l]].at {
			j = r
		}
		if ev[h[j]].at >= ev[h[i]].at {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// threadCPU returns the CPU time the calling OS thread has used so far.
// It reads CLOCK_THREAD_CPUTIME_ID, which the kernel brings up to date on
// every read; getrusage's per-thread figure moves only on scheduler
// ticks, 4 ms apart here, coarser than a probe slice.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // a valid clock and pointer cannot fail
	}
	return time.Duration(ts.Nano())
}
