package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"antace/internal/cluster"
	"antace/internal/fheclient"
	"antace/internal/ring"
	"antace/internal/serve"
	"antace/internal/serve/api"
)

// postCluster POSTs one cluster control message to the router and
// decodes the membership view it answers with.
func postCluster(t *testing.T, routerURL, path, body string) (int, api.Membership) {
	t.Helper()
	resp, err := http.Post(routerURL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view api.Membership
	raw := new(bytes.Buffer)
	_, _ = raw.ReadFrom(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw.Bytes(), &view); err != nil {
			t.Fatalf("POST %s: decoding %q: %v", path, raw.String(), err)
		}
	} else {
		t.Logf("POST %s: status %d body %s", path, resp.StatusCode, raw.String())
	}
	return resp.StatusCode, view
}

// registeredSession is one client registered through the router with a
// marshaled ciphertext and its uninterrupted reference answer —
// deterministic evaluation makes those bytes the yardstick every
// post-topology-change request must reproduce exactly.
type registeredSession struct {
	c    *fheclient.Client
	id   string
	ct   []byte
	want []byte
}

func registerSessions(t *testing.T, routerURL string, n, seedBase int) []registeredSession {
	t.Helper()
	ctx := context.Background()
	out := make([]registeredSession, 0, n)
	for i := 0; i < n; i++ {
		c, err := fheclient.Dial(ctx, routerURL, nil)
		if err != nil {
			t.Fatal(err)
		}
		id, err := c.Register(ctx, ring.SeedFromInt(uint64(seedBase+i)))
		if err != nil {
			t.Fatal(err)
		}
		input := make([]float64, c.Spec().VecLen)
		for j := range input {
			input[j] = float64((i+j)%11)/11 - 0.4
		}
		ct, err := c.Encrypt(input)
		if err != nil {
			t.Fatal(err)
		}
		ctBytes, err := ct.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		resp, want := rawInfer(t, routerURL, id, "ref", ctBytes)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reference run for session %d: status %d body %s", i, resp.StatusCode, want)
		}
		out = append(out, registeredSession{c: c, id: id, ct: ctBytes, want: want})
	}
	return out
}

// TestMembershipJoinInProcess: a shard that knows only itself joins a
// serving 3-shard cluster through the router's join endpoint. The epoch
// commits only after the ownership delta re-replicated, pre-join
// sessions keep answering bit-identically with zero client
// re-registration, and the joiner holds every session the new ring
// assigns it.
func TestMembershipJoinInProcess(t *testing.T) {
	tc := startCluster(t, 3)
	routerURL := startRouter(t, tc, cluster.RouterConfig{ProbeEvery: -1})
	sessions := registerSessions(t, routerURL, 5, 700)

	newURL := tc.addShard(t)
	status, view := postCluster(t, routerURL, api.PathClusterJoin, `{"endpoint":"`+newURL+`"}`)
	if status != http.StatusOK {
		t.Fatalf("join: status %d", status)
	}
	if view.Epoch != 1 || len(view.Members) != 4 {
		t.Fatalf("join committed %+v", view)
	}

	// Joining again is idempotent: no epoch spent.
	status, view = postCluster(t, routerURL, api.PathClusterJoin, `{"endpoint":"`+newURL+`"}`)
	if status != http.StatusOK || view.Epoch != 1 {
		t.Fatalf("duplicate join: status %d view %+v", status, view)
	}

	// Every pre-join session re-executes bit-identically through the
	// post-join ring — whichever shard now owns it.
	for i, s := range sessions {
		resp, got := rawInfer(t, routerURL, s.id, "post-join", s.ct)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("session %d after join: status %d body %s", i, resp.StatusCode, got)
		}
		if !bytes.Equal(got, s.want) {
			t.Fatalf("session %d answered different bytes after the join", i)
		}
	}

	// The join broadcast re-replicated the delta before the epoch
	// committed: the joiner already holds every pre-join session the new
	// ring assigns it (rebalanced duplicates may inflate the count, so
	// >= the exact owed number).
	newRing, err := cluster.NewRing(append(append([]string(nil), tc.urls...), newURL), 0)
	if err != nil {
		t.Fatal(err)
	}
	owed := 0
	for _, s := range sessions {
		for _, ep := range newRing.LookupN(s.id, 2) {
			if ep == newURL {
				owed++
			}
		}
	}
	resp, err := http.Get(newURL + api.PathStatz)
	if err != nil {
		t.Fatal(err)
	}
	var st api.Statz
	err = jsonBody(resp, &st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if int(st.ReplicaSessions) < owed {
		t.Fatalf("joiner holds %d replicated sessions, the new ring owes it %d", st.ReplicaSessions, owed)
	}

	// New registrations land on the 4-shard ring as usual.
	post := registerSessions(t, routerURL, 1, 790)
	if resp, _ := rawInfer(t, routerURL, post[0].id, "fresh", post[0].ct); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-join registration cannot infer: status %d", resp.StatusCode)
	}
}

// TestMembershipDrainInProcess: a graceful leave of a loaded shard.
// In-flight requests fired before the leave and requests issued after
// it must all answer bit-identically; the drained shard's OnLeave fires
// only after the handoff is acknowledged; the client never re-registers
// and (being router-dialed) never adopts the shard list.
func TestMembershipDrainInProcess(t *testing.T) {
	tc := startCluster(t, 3)
	routerURL := startRouter(t, tc, cluster.RouterConfig{ProbeEvery: -1})
	sessions := registerSessions(t, routerURL, 4, 800)

	victim := tc.ring.LookupN(sessions[0].id, 2)[0]

	// In-flight load: one re-execution per session, racing the drain.
	type reply struct {
		i      int
		status int
		body   []byte
	}
	replies := make(chan reply, len(sessions))
	for i, s := range sessions {
		go func(i int, s registeredSession) {
			resp, body := rawInfer(t, routerURL, s.id, "inflight", s.ct)
			replies <- reply{i: i, status: resp.StatusCode, body: body}
		}(i, s)
	}

	status, view := postCluster(t, routerURL, api.PathClusterLeave, `{"endpoint":"`+victim+`"}`)
	if status != http.StatusOK {
		t.Fatalf("leave: status %d", status)
	}
	if view.Epoch != 1 || len(view.Members) != 2 {
		t.Fatalf("leave committed %+v", view)
	}
	for _, ep := range view.Members {
		if ep == victim {
			t.Fatalf("drained shard still in the ring: %v", view.Members)
		}
	}

	// OnLeave fired after the ACK: the shard drains and goes away, like
	// the daemon exiting.
	select {
	case gone := <-tc.left:
		if gone != victim {
			t.Fatalf("shard %s left, expected %s", gone, victim)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("drained shard never fired OnLeave")
	}

	for range sessions {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("in-flight request %d: status %d body %s", r.i, r.status, r.body)
		}
		if !bytes.Equal(r.body, sessions[r.i].want) {
			t.Fatalf("in-flight request %d answered different bytes across the drain", r.i)
		}
	}

	// Every session keeps serving from the survivors, bit for bit.
	for i, s := range sessions {
		resp, got := rawInfer(t, routerURL, s.id, "post-drain", s.ct)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("session %d after drain: status %d body %s", i, resp.StatusCode, got)
		}
		if !bytes.Equal(got, s.want) {
			t.Fatalf("session %d answered different bytes after the drain", i)
		}
	}

	// Router-dialed clients must keep fronting the router: the guard in
	// refreshMembership refuses a view that lists shards, not the router.
	input := make([]float64, sessions[0].c.Spec().VecLen)
	if _, err := sessions[0].c.Infer(context.Background(), input); err != nil {
		t.Fatalf("client inference after drain: %v", err)
	}
	if ep := sessions[0].c.MembershipEpoch(); ep != 0 {
		t.Fatalf("router-dialed client adopted the shard list (epoch %d)", ep)
	}

	// Leaving the same endpoint again is a no-op, not another epoch.
	status, view = postCluster(t, routerURL, api.PathClusterLeave, `{"endpoint":"`+victim+`"}`)
	if status != http.StatusOK || view.Epoch != 1 {
		t.Fatalf("duplicate leave: status %d view %+v", status, view)
	}
}

// presetSession pre-assigns the session id on registrations, as the
// router does for the sessions it places.
type presetSession string

func (id presetSession) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost && r.URL.Path == api.PathSessions {
		r = r.Clone(r.Context())
		r.Header.Set(api.HeaderSession, string(id))
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestMembershipClientRefetch: a shard-dialed client rides a topology
// change. Its registration endpoint drains away; the next inference
// hits a survivor that does not own the session (404), which triggers
// the membership re-fetch — the client adopts the fresh shard list and
// lands on the new owner within its ordinary attempt budget, instead of
// cycling the stale list until it is exhausted.
func TestMembershipClientRefetch(t *testing.T) {
	tc := startCluster(t, 4)
	routerURL := startRouter(t, tc, cluster.RouterConfig{ProbeEvery: -1})
	ctx := context.Background()

	// The client's first base registers the session; after that base
	// drains, the client's next candidate must be the one survivor that
	// does NOT own the session, so the 404 -> refetch path is what serves
	// the request (a client whose rotation lands on an owner would pass
	// without exercising it). Which survivor that is follows from the
	// session id and the ephemeral ports the shards got — on some layouts
	// one shard co-owns nearly every id — so the id is fixed first,
	// pre-assigned on the registration the way the router does, and the
	// client's endpoint list is ordered around it.
	first := tc.urls[0]
	survivors, err := cluster.NewRing(tc.urls[1:], 0)
	if err != nil {
		t.Fatal(err)
	}
	const sessID = "00000000000000000000000000000900"
	owners := survivors.LookupN(sessID, 2)
	bases := []string{first}
	for _, u := range tc.urls[1:] {
		if u != owners[0] && u != owners[1] {
			bases = append(bases, u)
		}
	}
	bases = append(bases, owners...)
	c, err := fheclient.DialMulti(ctx, bases, &http.Client{Transport: presetSession(sessID)})
	if err != nil {
		t.Fatal(err)
	}
	if id, err := c.Register(ctx, ring.SeedFromInt(900)); err != nil || id != sessID {
		t.Fatalf("registering under pre-assigned id %s: id %q, err %v", sessID, id, err)
	}

	// One ciphertext, inferred before and after the change: deterministic
	// re-execution must answer bit-identical result ciphertexts.
	input := make([]float64, c.Spec().VecLen)
	for i := range input {
		input[i] = float64(i%5)/5 - 0.2
	}
	ct, err := c.Encrypt(input)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c.InferCipher(ctx, ct)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// Drain the registration endpoint via the router so the whole
	// cluster adopts epoch 1 and the session re-ships to its new owners.
	if status, _ := postCluster(t, routerURL, api.PathClusterLeave, `{"endpoint":"`+first+`"}`); status != http.StatusOK {
		t.Fatalf("leave: status %d", status)
	}
	select {
	case <-tc.left:
	case <-time.After(15 * time.Second):
		t.Fatal("drained shard never left")
	}

	out, err := c.InferCipher(ctx, ct)
	if err != nil {
		t.Fatalf("inference across the topology change: %v", err)
	}
	got, err := out.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("result ciphertext differs across the topology change")
	}
	if ep := c.MembershipEpoch(); ep != 1 {
		t.Fatalf("client membership epoch %d, want 1 (the refetch must have fired)", ep)
	}
	if c.SessionID() != sessID {
		t.Fatal("client re-registered")
	}
}

// TestMembershipHandoffReadyz pins the drain-for-handoff contract at
// the shard level, without a router: a shard that finds itself removed
// by a ClusterUpdate answers the update only after re-shipping its
// delta, reports the new epoch as its membership, and flips its
// readiness to 503 handing-off so no prober routes new work to it.
func TestMembershipHandoffReadyz(t *testing.T) {
	// Two shards without an OnLeave hook, so the leaver stays up after
	// the handoff and its readiness can be asserted deterministically.
	prog, _ := compileLinear(t)
	var urls []string
	var listeners []net.Listener
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners = append(listeners, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	rg, err := cluster.NewRing(urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, ln := range listeners {
		sh, err := cluster.NewShipper(rg, urls[i], nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.New(prog, serve.Config{Workers: 1, Replicator: sh})
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: srv}
		go func() { _ = hs.Serve(ln) }()
		t.Cleanup(func() {
			_ = hs.Close()
			sh.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = srv.Drain(ctx)
		})
	}
	leaver, survivor := urls[0], urls[1]

	// Before any handoff the leaver is ready.
	resp, err := http.Get(leaver + api.PathReadyz)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-handoff readyz: status %d", resp.StatusCode)
	}

	update := `{"epoch":1,"members":["` + survivor + `"],"leaving":"` + leaver + `"}`
	resp, err = http.Post(leaver+api.PathClusterUpdate, "application/json", strings.NewReader(update))
	if err != nil {
		t.Fatal(err)
	}
	var reply api.ClusterUpdateReply
	err = jsonBody(resp, &reply)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster update: status %d err %v", resp.StatusCode, err)
	}
	if reply.Epoch != 1 {
		t.Fatalf("update acknowledged epoch %d, want 1", reply.Epoch)
	}

	// The leaver's membership view reflects the adopted ring...
	resp, err = http.Get(leaver + api.PathClusterMembership)
	if err != nil {
		t.Fatal(err)
	}
	var view api.Membership
	err = jsonBody(resp, &view)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if view.Epoch != 1 || len(view.Members) != 1 || view.Members[0] != survivor {
		t.Fatalf("leaver's adopted membership: %+v", view)
	}

	// ...and its readiness is 503 handing-off: no prober routes new work
	// to a shard that acknowledged its own removal.
	resp, err = http.Get(leaver + api.PathReadyz)
	if err != nil {
		t.Fatal(err)
	}
	var rz api.Readyz
	err = jsonBody(resp, &rz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || rz.Status != "handing-off" {
		t.Fatalf("post-handoff readyz: status %d %+v, want 503 handing-off", resp.StatusCode, rz)
	}

	// A duplicate broadcast is acknowledged idempotently, on the leaver
	// and the survivor alike.
	for _, ep := range urls {
		resp, err = http.Post(ep+api.PathClusterUpdate, "application/json", strings.NewReader(update))
		if err != nil {
			t.Fatal(err)
		}
		err = jsonBody(resp, &reply)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || reply.Epoch != 1 {
			t.Fatalf("duplicate update to %s: status %d reply %+v err %v", ep, resp.StatusCode, reply, err)
		}
	}
}
