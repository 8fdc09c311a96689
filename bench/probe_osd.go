package main

import (
	"runtime"
	"time"

	"lwfs/internal/netsim"
	"lwfs/internal/osd"
)

// probeOSD measures the extent store alone. blob_append_ns_N is the host
// cost of appending one more 128-byte extent to a blob that already holds N
// of them (Blob.Write; today O(N) plus a re-sort), blob_append_bytes_4k the
// bytes that append allocates, blob_overwrite_ns_4k rewriting an extent in
// the middle, blob_read_ns_4k reading one back (Blob.Read). Each batch
// truncates the blob back to N extents, so N does not drift.
func probeOSD(tiny bool) (map[string]float64, error) {
	const ext = 128
	data := netsim.BytesPayload(make([]byte, ext))
	small, large := 1024, 4096
	if tiny {
		small, large = 64, 256
	}
	const per = 8 // appends per batch

	var b osd.Blob
	fill := func(n int) {
		for i := int(b.Size() / ext); i < n; i++ {
			b.Write(int64(i)*ext, data)
		}
	}
	appendNs := func(n int) (float64, error) {
		fill(n)
		return medianNs(per, func() (time.Duration, error) {
			start := time.Now()
			for i := 0; i < per; i++ {
				b.Write(int64(n+i)*ext, data)
			}
			d := time.Since(start)
			b.Truncate(int64(n) * ext)
			return d, nil
		})
	}

	out := map[string]float64{}
	var err error
	if out["osd.blob_append_ns_1k"], err = appendNs(small); err != nil {
		return nil, err
	}
	if out["osd.blob_append_ns_4k"], err = appendNs(large); err != nil {
		return nil, err
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < per; i++ {
		b.Write(int64(large+i)*ext, data)
	}
	runtime.ReadMemStats(&after)
	b.Truncate(int64(large) * ext)
	out["osd.blob_append_bytes_4k"] = float64(after.TotalAlloc-before.TotalAlloc) / per

	mid := int64(large/2) * ext
	if out["osd.blob_overwrite_ns_4k"], err = medianNs(per, func() (time.Duration, error) {
		start := time.Now()
		for i := 0; i < per; i++ {
			b.Write(mid, data)
		}
		return time.Since(start), nil
	}); err != nil {
		return nil, err
	}
	var sink int64
	if out["osd.blob_read_ns_4k"], err = medianNs(per, func() (time.Duration, error) {
		start := time.Now()
		for i := 0; i < per; i++ {
			sink += b.Read(mid, ext).Size
		}
		return time.Since(start), nil
	}); err != nil {
		return nil, err
	}
	_ = sink
	return out, nil
}
