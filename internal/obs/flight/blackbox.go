package flight

import (
	"encoding/json"
	"fmt"
)

// SchemaV1 versions the serialized black box. Unmarshal rejects
// anything else.
const SchemaV1 = "raizn-blackbox/v1"

// TriggerKind classifies what froze the recorder.
type TriggerKind int

const (
	// TrigSlowIO: the tail sampler kept requests far above the
	// running p99.
	TrigSlowIO TriggerKind = iota
	// TrigSLOBreach: a tenant's latency SLO alarm fired.
	TrigSLOBreach
	// TrigDeviceHealth: a device health transition (suspect/failed).
	TrigDeviceHealth
	// TrigOracle: the chaos recovery oracle found a contract violation.
	TrigOracle
	// TrigPPFallback: the ZRAID parity engine's slot table was full and
	// an image went to the partial-parity log.
	TrigPPFallback
)

var trigNames = [...]string{
	"slow-io", "slo-breach", "device-health", "oracle-violation", "pp-fallback",
}

func (k TriggerKind) String() string {
	if int(k) < len(trigNames) {
		return trigNames[k]
	}
	return "trigger?"
}

// Trigger describes the incident that froze the recorder.
type Trigger struct {
	Kind   TriggerKind `json:"kind"`
	TNs    int64       `json:"t_ns"`
	Detail string      `json:"detail"`
	// Dev/Zone are the trigger's own suspect coordinates when it has
	// them (a slow-IO trigger knows the slowed device, the oracle knows
	// the violated zone); -1 when unknown. They seed the suspect ranking.
	Dev  int `json:"dev"`
	Zone int `json:"zone"`
	// Tenant/Array attribute a volmgr SLO breach.
	Tenant string `json:"tenant,omitempty"`
	Array  string `json:"array,omitempty"`
	// ReplaySeed reproduces the incident when running under chaos.
	ReplaySeed string `json:"replay_seed,omitempty"`
}

// SeriesDump is one metric's retained time series, oldest-first.
type SeriesDump struct {
	Name    string   `json:"name"`
	Dropped uint64   `json:"dropped,omitempty"` // samples lost to ring wraparound
	Samples []Sample `json:"samples"`
}

// SpanDump is one serialized span tree node.
type SpanDump struct {
	Op       string     `json:"op"`
	Dev      int        `json:"dev"`
	LBA      int64      `json:"lba"`
	Bytes    int64      `json:"bytes"`
	StartNs  int64      `json:"start_ns"`
	EndNs    int64      `json:"end_ns"`
	Err      string     `json:"err,omitempty"`
	Children []SpanDump `json:"children,omitempty"`
}

// EventDump is one serialized journal event; A–D keep the per-type
// payload slots documented on obs.EventType.
type EventDump struct {
	Seq  uint64 `json:"seq"`
	TNs  int64  `json:"t_ns"`
	Type string `json:"type"`
	Src  int    `json:"src"`
	Zone int    `json:"zone"`
	A    int64  `json:"a"`
	B    int64  `json:"b"`
	C    int64  `json:"c"`
	D    int64  `json:"d"`
}

// BlackBox is the persistable form of a flight recorder: everything an
// incident report needs, serialized deterministically (fixed field
// order, series sorted by name, spans and events oldest-first).
type BlackBox struct {
	Schema        string       `json:"schema"`
	Label         string       `json:"label,omitempty"`
	Frozen        bool         `json:"frozen"`
	FrozenAtNs    int64        `json:"frozen_at_ns"`
	Trigger       *Trigger     `json:"trigger,omitempty"`
	Series        []SeriesDump `json:"series"`
	Spans         []SpanDump   `json:"spans"`
	SpansTotal    uint64       `json:"spans_total"`
	Events        []EventDump  `json:"events"`
	EventsDropped uint64       `json:"events_dropped,omitempty"`
}

// Marshal serializes the box. The output is byte-deterministic for a
// given box: field order is fixed by the struct and every slice is
// emitted in its stored (sorted or chronological) order.
func (b *BlackBox) Marshal() ([]byte, error) {
	return json.Marshal(b)
}

// Unmarshal parses and schema-checks a serialized black box.
func Unmarshal(data []byte) (*BlackBox, error) {
	var b BlackBox
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("flight: unmarshal black box: %w", err)
	}
	if b.Schema != SchemaV1 {
		return nil, fmt.Errorf("flight: unknown black box schema %q", b.Schema)
	}
	return &b, nil
}
