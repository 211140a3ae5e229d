package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"riommu/internal/iommu"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

var dev = pci.NewBDF(0, 3, 0)

func sample() *Trace {
	t := &Trace{}
	t.Record(EvMap, dev, 0x10000, pci.DirFromDevice)
	t.Record(EvTranslate, dev, 0x10000, pci.DirFromDevice)
	t.Record(EvTranslate, dev, 0x10234, pci.DirFromDevice)
	t.Record(EvUnmap, dev, 0x10000, pci.DirNone)
	return t
}

func TestRecordPages(t *testing.T) {
	tr := sample()
	if tr.Len() != 4 {
		t.Fatalf("Len = %d", tr.Len())
	}
	// Addresses are recorded as page numbers.
	if tr.Events[1].Page != 0x10 {
		t.Errorf("page = %#x, want 0x10", tr.Events[1].Page)
	}
	// Same page, different offsets: same page number.
	if tr.Events[2].Page != 0x10 {
		t.Errorf("page = %#x", tr.Events[2].Page)
	}
	acc := 0
	for _, e := range tr.Events {
		if e.Kind == EvTranslate {
			acc++
		}
	}
	if acc != 2 {
		t.Errorf("translation events = %d, want 2", acc)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("events = %d", len(got.Events))
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Errorf("event %d = %+v, want %+v", i, got.Events[i], tr.Events[i])
		}
	}
}

func TestBinaryTruncated(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(bytes.NewReader(buf.Bytes()[:buf.Len()-3])); err == nil {
		t.Error("truncated stream should fail")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Errorf("event %d mismatch", i)
		}
	}
	if _, err := ReadJSON(strings.NewReader("{bad json")); err == nil {
		t.Error("bad JSON should fail")
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	prop := func(kinds []uint8, pages []uint64) bool {
		tr := &Trace{}
		n := len(kinds)
		if len(pages) < n {
			n = len(pages)
		}
		for i := 0; i < n; i++ {
			tr.Events = append(tr.Events, Event{
				Kind: EventKind(kinds[i] % 3),
				BDF:  dev,
				Page: pages[i],
				Dir:  pci.Dir(kinds[i] % 4),
			})
		}
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if len(got.Events) != len(tr.Events) {
			return false
		}
		for i := range tr.Events {
			if got.Events[i] != tr.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestRecorder(t *testing.T) {
	tr := &Trace{}
	rec := &Recorder{Inner: iommu.Identity{}, Trace: tr}
	pa, err := rec.Translate(dev, 0x5123, 64, pci.DirToDevice)
	if err != nil || pa != mem.PA(0x5123) {
		t.Fatalf("Translate = %#x, %v", pa, err)
	}
	if tr.Len() != 1 || tr.Events[0].Page != 5 || tr.Events[0].Kind != EvTranslate {
		t.Errorf("recorded %+v", tr.Events)
	}
}

func TestEventKindString(t *testing.T) {
	if EvTranslate.String() != "translate" || EvMap.String() != "map" ||
		EvUnmap.String() != "unmap" || EventKind(9).String() != "kind(9)" {
		t.Error("EventKind names wrong")
	}
}
