// Package trace records and replays DMA address streams. The paper's §5.4
// methodology modified KVM/QEMU's IOMMU layer to log the DMAs of emulated
// devices and fed the traces to simulated TLB prefetchers; we do the same by
// logging every translation our simulated devices perform, with binary and
// JSON codecs for storage.
package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"riommu/internal/mem"
	"riommu/internal/pci"
)

// EventKind distinguishes the record types in a trace.
type EventKind uint8

// Trace event kinds.
const (
	// EvTranslate is a DMA translation (an IOVA page access).
	EvTranslate EventKind = iota
	// EvMap is an OS map of an IOVA page.
	EvMap
	// EvUnmap is an OS unmap (invalidation) of an IOVA page.
	EvUnmap
	// EvFault is an injected fault; the fault class rides in the Dir field
	// (the record layout has no spare byte) and Page holds the fault address.
	EvFault
	// EvRecovery is a driver recovery action; the action code rides in the
	// Dir field.
	EvRecovery
)

func (k EventKind) String() string {
	switch k {
	case EvTranslate:
		return "translate"
	case EvMap:
		return "map"
	case EvUnmap:
		return "unmap"
	case EvFault:
		return "fault"
	case EvRecovery:
		return "recovery"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one trace record.
type Event struct {
	Kind EventKind `json:"kind"`
	BDF  pci.BDF   `json:"bdf"`
	// Page is the IOVA page number accessed/mapped/unmapped.
	Page uint64 `json:"page"`
	// Dir is the DMA direction for EvTranslate events.
	Dir pci.Dir `json:"dir"`
}

// Trace is an in-memory event sequence.
type Trace struct {
	Events []Event
}

// Record appends an event.
func (t *Trace) Record(kind EventKind, bdf pci.BDF, iova uint64, dir pci.Dir) {
	t.Events = append(t.Events, Event{Kind: kind, BDF: bdf, Page: iova >> mem.PageShift, Dir: dir})
}

// RecordFault satisfies the fault engine's Sink interface: injections appear
// inline in the trace, interleaved with the DMAs they perturb. The class is
// carried in the Dir field and the raw fault address in Page (not shifted:
// fault addresses — descriptor slots, cachelines — are finer than pages).
func (t *Trace) RecordFault(class uint8, bdf pci.BDF, addr uint64) {
	t.Events = append(t.Events, Event{Kind: EvFault, BDF: bdf, Page: addr, Dir: pci.Dir(class)})
}

// RecordRecovery logs a driver recovery action (retry, reset, degrade…); the
// action code is carried in the Dir field.
func (t *Trace) RecordRecovery(action uint8, bdf pci.BDF) {
	t.Events = append(t.Events, Event{Kind: EvRecovery, BDF: bdf, Dir: pci.Dir(action)})
}

// Len returns the number of events.
func (t *Trace) Len() int { return len(t.Events) }

// binary format: 1-byte kind, 2-byte bdf, 1-byte dir, 8-byte page, LE.
const recBytes = 12

// WriteBinary streams the trace in the compact binary format.
func (t *Trace) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var rec [recBytes]byte
	for _, e := range t.Events {
		rec[0] = byte(e.Kind)
		binary.LittleEndian.PutUint16(rec[1:], uint16(e.BDF))
		rec[3] = byte(e.Dir)
		binary.LittleEndian.PutUint64(rec[4:], e.Page)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses a binary trace stream.
func ReadBinary(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	t := &Trace{}
	var rec [recBytes]byte
	for {
		_, err := io.ReadFull(br, rec[:])
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: short record: %w", err)
		}
		t.Events = append(t.Events, Event{
			Kind: EventKind(rec[0]),
			BDF:  pci.BDF(binary.LittleEndian.Uint16(rec[1:])),
			Dir:  pci.Dir(rec[3]),
			Page: binary.LittleEndian.Uint64(rec[4:]),
		})
	}
}

// WriteJSON streams the trace as JSON lines.
func (t *Trace) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range t.Events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSON parses a JSON-lines trace.
func ReadJSON(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(r)
	t := &Trace{}
	for {
		var e Event
		err := dec.Decode(&e)
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: bad JSON record: %w", err)
		}
		t.Events = append(t.Events, e)
	}
}

// Recorder wraps a Translator, logging every translation into a Trace. It
// implements the same Translate signature it wraps, so it can be spliced
// between the DMA engine and the translation hardware.
type Recorder struct {
	Inner interface {
		Translate(bdf pci.BDF, iova uint64, size uint32, dir pci.Dir) (mem.PA, error)
	}
	Trace *Trace
}

// Translate records the access and forwards to the wrapped translator.
func (r *Recorder) Translate(bdf pci.BDF, iova uint64, size uint32, dir pci.Dir) (mem.PA, error) {
	r.Trace.Record(EvTranslate, bdf, iova, dir)
	return r.Inner.Translate(bdf, iova, size, dir)
}
