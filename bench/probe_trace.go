package main

import (
	"bytes"
	"time"

	"lwfs/internal/trace"
)

// probeTrace: trace.decode_ns_per_event is trace.Decode over the encoded
// seismic example (the longest embedded trace), per event.
func probeTrace(bool) (map[string]float64, error) {
	tr, err := trace.Example("seismic")
	if err != nil {
		return nil, err
	}
	var enc bytes.Buffer
	if err := tr.Encode(&enc); err != nil {
		return nil, err
	}
	decode, err := medianNs(len(tr.Events), func() (time.Duration, error) {
		start := time.Now()
		_, err := trace.Decode(bytes.NewReader(enc.Bytes()))
		return time.Since(start), err
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{"trace.decode_ns_per_event": decode}, nil
}
