package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"

	"riommu/internal/dma"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

// span is one timed call into a simulator layer, recorded from the
// benchmark's side of the public seam.
type span struct {
	Name    string             `json:"name"`
	Parent  int                `json:"parent"` // index into the span list, -1 for a root
	StartNs int64              `json:"start_ns"`
	EndNs   int64              `json:"end_ns"`
	AllocB  uint64             `json:"alloc_bytes,omitempty"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`

	mem   bool
	alloc uint64 // TotalAlloc at begin, when mem is set
}

// tracer keeps spans in memory; writeSpans dumps them once the run ends.
// A nil *tracer records nothing, so untraced repetitions pass nil.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open one. withMem brackets it with
// runtime.MemStats reads; reserve that for coarse spans, since each read
// stops the world.
func (t *tracer) begin(name string, withMem bool) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	s := span{Name: name, Parent: parent, mem: withMem}
	if withMem {
		s.alloc = totalAlloc()
	}
	s.StartNs = int64(time.Since(t.epoch))
	t.spans = append(t.spans, s)
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, the innermost open one.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.EndNs = int64(time.Since(t.epoch))
	if s.mem {
		s.AllocB = totalAlloc() - s.alloc
	}
	t.open = t.open[:len(t.open)-1]
}

// attr attaches a count or aggregate measured at span id's boundary.
func (t *tracer) attr(id int, key string, v float64) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	if s.Attrs == nil {
		s.Attrs = map[string]float64{}
	}
	s.Attrs[key] = v
}

func (t *tracer) ms(id int) float64 {
	return float64(t.spans[id].EndNs-t.spans[id].StartNs) / 1e6
}

func (t *tracer) allocMB(id int) float64 { return float64(t.spans[id].AllocB) / 1e6 }

func writeSpans(path string, spans []span) error {
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// timedAuditor wraps the DMA engine's auditor: it times and counts every
// VerifyDMA call and forwards it unchanged.
type timedAuditor struct {
	inner dma.Auditor
	ns    int64
	calls uint64
}

func (a *timedAuditor) VerifyDMA(bdf pci.BDF, iova uint64, pa mem.PA, size uint32, dir pci.Dir) {
	t := time.Now()
	a.inner.VerifyDMA(bdf, iova, pa, size, dir)
	a.ns += int64(time.Since(t))
	a.calls++
}

// timedTranslator wraps the DMA engine's translator, timing every call and
// counting the chunks it resolves.
type timedTranslator struct {
	inner       dma.Translator
	ns          int64
	chunks      uint64
	batchChunks uint64
}

func (tt *timedTranslator) Translate(bdf pci.BDF, iova uint64, size uint32, dir pci.Dir) (mem.PA, error) {
	t := time.Now()
	pa, err := tt.inner.Translate(bdf, iova, size, dir)
	tt.ns += int64(time.Since(t))
	tt.chunks++
	return pa, err
}

// timedBatchTranslator adds the batched verb, so the engine keeps batching
// exactly when the wrapped translator can.
type timedBatchTranslator struct {
	*timedTranslator
	bt dma.BatchTranslator
}

func (tb timedBatchTranslator) TranslateBatch(bdf pci.BDF, reqs []dma.Req, out []dma.Resp) int {
	t := time.Now()
	n := tb.bt.TranslateBatch(bdf, reqs, out)
	tb.ns += int64(time.Since(t))
	tb.chunks += uint64(len(reqs))
	tb.batchChunks += uint64(len(reqs))
	return n
}

// wrapTranslator returns the timing wrapper for tr and its counters.
func wrapTranslator(tr dma.Translator) (dma.Translator, *timedTranslator) {
	tt := &timedTranslator{inner: tr}
	if bt, ok := tr.(dma.BatchTranslator); ok {
		return timedBatchTranslator{timedTranslator: tt, bt: bt}, tt
	}
	return tt, tt
}
