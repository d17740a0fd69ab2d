package durable

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// benchRecords is the length of the log a restart of perfbench's seeded
// svc-write-durable directory replays.
const benchRecords = 24010

// syntheticLog returns n records shaped like that seeded log: an epoch
// bump and a hello, then write and read Acquire+Release pairs, each a
// grant, its cached response, a release and its cached response.
func syntheticLog(n int) []*Record {
	const sess = "3f9a0c21d4e5b687"
	recs := []*Record{{Type: RecEpoch, Epoch: 1}, {Type: RecHello, Session: sess, TTLMS: 60000, Expiry: 1760000000000000000}}
	for i := 0; len(recs) < n; i++ {
		seq := uint64(2*i + 2)
		key := fmt.Sprintf("s%03d", (i*37)%256)
		mode, tok := "r", uint64(0)
		if i%2 == 0 {
			mode, tok = "w", MakeToken(1, uint64(i/2+1))
		}
		recs = append(recs,
			&Record{Type: RecGrant, Session: sess, Key: key, Mode: mode},
			&Record{Type: RecResp, Session: sess, Seq: seq, Resp: []byte(fmt.Sprintf(`{"seq":%d,"ok":true,"passage":%d}`, seq, tok))},
			&Record{Type: RecRelease, Session: sess, Key: key, Mode: mode},
			&Record{Type: RecResp, Session: sess, Seq: seq + 1, Resp: []byte(fmt.Sprintf(`{"seq":%d,"ok":true}`, seq+1))})
	}
	recs = recs[:n]
	for i, r := range recs {
		r.LSN = uint64(i + 1)
	}
	return recs
}

// BenchmarkAppendFrame encodes one record of the synthetic log per op
// into a reused buffer, as the WAL's append path does.
func BenchmarkAppendFrame(b *testing.B) {
	recs := syntheticLog(benchRecords)
	var buf []byte
	var total int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = AppendFrame(buf[:0], recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
		total += len(buf)
	}
	b.ReportMetric(float64(total)/float64(b.N), "bytes/frame")
}

// BenchmarkReplay replays the synthetic log of benchRecords records per
// op and reports the two halves per record: decoding the frames
// (streaming, with nothing applied) and applying the decoded records to
// a fresh State.
func BenchmarkReplay(b *testing.B) {
	recs := syntheticLog(benchRecords)
	var log []byte
	for _, r := range recs {
		log, _ = AppendFrame(log, r)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(log)))
	var dec, app time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		n := 0
		if _, err := ReadLog(bytes.NewReader(log), func(*Record) { n++ }); err != nil || n != benchRecords {
			b.Fatalf("decoded %d records: %v", n, err)
		}
		t1 := time.Now()
		st := NewState()
		for _, r := range recs {
			st.Apply(r)
		}
		dec += t1.Sub(t0)
		app += time.Since(t1)
	}
	b.ReportMetric(float64(dec.Nanoseconds())/float64(b.N*benchRecords), "decode-ns/rec")
	b.ReportMetric(float64(app.Nanoseconds())/float64(b.N*benchRecords), "apply-ns/rec")
}
