package obs

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestTraceIDsUnique(t *testing.T) {
	const n = 1000
	ids := make(chan string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids <- NewTraceID()
		}()
	}
	wg.Wait()
	close(ids)
	seen := map[string]bool{}
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
}

// start begins a request's trace the way the serving envelope does: a
// fresh trace ID, and, when the tracer samples the request, a root span the
// returned context carries.
func start(tr *Tracer, name string) (context.Context, string, *Span) {
	id := NewTraceID()
	if !tr.Sample() {
		return context.Background(), id, nil
	}
	root := tr.Root(id, name)
	return ContextWithSpan(context.Background(), root), id, root
}

func TestTracerSampledTraceTree(t *testing.T) {
	store := NewTraceStore(8)
	tr := NewTracer(1, store)
	ctx, id, root := start(tr, "GET /v1/query")
	if root == nil {
		t.Fatal("rate-1 tracer did not sample")
	}
	if SpanFrom(ctx) != root {
		t.Fatal("context does not carry the root span")
	}
	span := SpanFrom(ctx).StartChild("cache")
	span.SetAttr("hit", "false")
	child := SpanFrom(ContextWithSpan(ctx, span)).StartChild("score")
	child.SetAttrInt("docs", 42)
	child.Finish()
	span.Finish()
	root.Finish()

	got, ok := store.Get(id)
	if !ok {
		t.Fatalf("trace %q not in store", id)
	}
	if got.Root.Name != "GET /v1/query" {
		t.Errorf("root name = %q", got.Root.Name)
	}
	if got.Spans() != 3 {
		t.Errorf("span count = %d, want 3", got.Spans())
	}
	if len(got.Root.Children) != 1 || got.Root.Children[0].Name != "cache" {
		t.Fatalf("unexpected children: %+v", got.Root.Children)
	}
	cache := got.Root.Children[0]
	if len(cache.Children) != 1 || cache.Children[0].Name != "score" {
		t.Fatalf("cache children: %+v", cache.Children)
	}
	if len(cache.Attrs) != 1 || cache.Attrs[0].Key != "hit" {
		t.Errorf("cache attrs: %+v", cache.Attrs)
	}
	// the tree must survive a JSON round trip (the /tracez contract)
	data, err := json.Marshal(got)
	if err != nil {
		t.Fatalf("marshal trace: %v", err)
	}
	var back TraceJSON
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal trace: %v", err)
	}
	if back.ID != got.ID || back.Spans() != 3 {
		t.Errorf("round trip mismatch: %+v", back)
	}
}

func TestTracerUnsampledIsNoop(t *testing.T) {
	tr := NewTracer(0, NewTraceStore(4))
	ctx, id, root := start(tr, "req")
	if root != nil {
		t.Fatal("rate-0 tracer sampled")
	}
	if id == "" {
		t.Fatal("unsampled request must still get a trace id")
	}
	// all downstream instrumentation must be a no-op, not a panic
	span := SpanFrom(ctx).StartChild("child")
	if span != nil {
		t.Fatal("StartChild returned a live span without a sampled trace")
	}
	if ContextWithSpan(ctx, span) != ctx {
		t.Fatal("a nil span derived a context")
	}
	span.SetAttr("k", "v")
	span.SetAttrInt("n", 1)
	grand := span.StartChild("grandchild")
	grand.Finish()
	span.Finish()
	root.Finish()

	var nilTracer *Tracer
	if nilTracer.Sample() || nilTracer.Store() != nil {
		t.Fatal("nil tracer must never sample")
	}
}

func TestTracerSamplingPeriod(t *testing.T) {
	store := NewTraceStore(64)
	tr := NewTracer(0.25, store) // every 4th
	sampled := 0
	for i := 0; i < 40; i++ {
		if _, _, root := start(tr, "req"); root != nil {
			sampled++
			root.Finish()
		}
	}
	if sampled != 10 {
		t.Errorf("sampled %d of 40 at rate 0.25, want 10", sampled)
	}
}

func TestTraceStoreEvictsOldest(t *testing.T) {
	store := NewTraceStore(2)
	tr := NewTracer(1, store)
	var ids []string
	for i := 0; i < 3; i++ {
		_, id, root := start(tr, "req")
		ids = append(ids, id)
		root.Finish()
	}
	if store.Len() != 2 {
		t.Fatalf("store len = %d, want 2", store.Len())
	}
	if _, ok := store.Get(ids[0]); ok {
		t.Error("oldest trace should have been evicted")
	}
	for _, id := range ids[1:] {
		if _, ok := store.Get(id); !ok {
			t.Errorf("trace %q missing", id)
		}
	}
	recent := store.Recent(0)
	if len(recent) != 2 || recent[0].ID != ids[2] || recent[1].ID != ids[1] {
		t.Errorf("Recent order wrong: %+v", recent)
	}
}

func TestUnfinishedSpanExport(t *testing.T) {
	store := NewTraceStore(4)
	tr := NewTracer(1, store)
	ctx, id, root := start(tr, "req")
	child := SpanFrom(ctx).StartChild("slow")
	root.Finish() // request returned before the child (e.g. deadline hit)
	got, ok := store.Get(id)
	if !ok {
		t.Fatal("trace missing")
	}
	if len(got.Root.Children) != 1 || !got.Root.Children[0].Unfinished {
		t.Errorf("expected one unfinished child, got %+v", got.Root.Children)
	}
	child.Finish()
}

func TestTraceHandler(t *testing.T) {
	store := NewTraceStore(8)
	tr := NewTracer(1, store)
	_, id, root := start(tr, "req")
	root.Finish()

	h := TraceHandler(store)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/tracez", nil))
	var list []tracezSummary
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("tracez list: %v (%s)", err, rec.Body.String())
	}
	if len(list) != 1 || list[0].ID != id {
		t.Fatalf("tracez listing: %+v", list)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/tracez?id="+id, nil))
	var full TraceJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil {
		t.Fatalf("tracez by id: %v", err)
	}
	if full.ID != id {
		t.Errorf("trace id = %q", full.ID)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/tracez?id=nope", nil))
	if rec.Code != 404 {
		t.Errorf("unknown id -> %d, want 404", rec.Code)
	}
}
