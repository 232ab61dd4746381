package httpd

import (
	"encoding/json"
	"strings"
	"testing"

	"sweb/internal/httpmsg"
	"sweb/internal/metrics"
	"sweb/internal/trace"
)

// TestTraceDroppedSurfaced overflows a tiny recorder and checks the dropped
// counter shows up everywhere an operator would look: /sweb/status,
// /sweb/trace, and the metrics exposition.
func TestTraceDroppedSurfaced(t *testing.T) {
	rec := trace.NewRecorder(6) // one request records 5 events; two overflow
	srv, doc := startSoloNode(t, func(c *Config) { c.Trace = rec })
	for i := 0; i < 2; i++ {
		if st, _ := get(t, srv.Addr(), doc); st != httpmsg.StatusOK {
			t.Fatalf("document fetch = %d", st)
		}
	}
	srv.Settle(2)
	if rec.Dropped() == 0 {
		t.Fatal("recorder did not overflow; the test premise is wrong")
	}

	status, body := get(t, srv.Addr(), "/sweb/status")
	if status != httpmsg.StatusOK {
		t.Fatalf("/sweb/status = %d", status)
	}
	var rep StatusReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("status payload: %v", err)
	}
	if !rep.Trace.Enabled || rep.Trace.Events != 6 || rep.Trace.Dropped != rec.Dropped() {
		t.Fatalf("status trace block = %+v, recorder dropped %d", rep.Trace, rec.Dropped())
	}
	if rep.Trace.EpochUnix <= 0 {
		t.Fatalf("status trace epoch = %v, want a Unix timestamp", rep.Trace.EpochUnix)
	}

	status, body = get(t, srv.Addr(), "/sweb/trace")
	if status != httpmsg.StatusOK {
		t.Fatalf("/sweb/trace = %d", status)
	}
	var dump TraceDump
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("trace payload: %v", err)
	}
	if dump.Node != 0 || !dump.Enabled || len(dump.Events) != 6 || dump.Dropped != rec.Dropped() {
		t.Fatalf("trace dump node=%d enabled=%v events=%d dropped=%d",
			dump.Node, dump.Enabled, len(dump.Events), dump.Dropped)
	}

	_, body = get(t, srv.Addr(), "/sweb/metrics")
	samples, err := metrics.ParseText(strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := metrics.Value(samples, "sweb_trace_dropped_total", nil); !ok || v != float64(rec.Dropped()) {
		t.Fatalf("sweb_trace_dropped_total = %v (found=%v), want %d", v, ok, rec.Dropped())
	}
}

// TestTraceEndpointWithoutRecorder: an untraced node still answers
// /sweb/trace, reporting tracing disabled.
func TestTraceEndpointWithoutRecorder(t *testing.T) {
	srv, _ := startSoloNode(t, nil)
	status, body := get(t, srv.Addr(), "/sweb/trace")
	if status != httpmsg.StatusOK {
		t.Fatalf("/sweb/trace = %d", status)
	}
	var dump TraceDump
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Enabled || len(dump.Events) != 0 {
		t.Fatalf("untraced dump = %+v", dump)
	}
}
