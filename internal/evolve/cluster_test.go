package evolve

import (
	"bytes"
	"io"
	"log"
	"net/http/httptest"
	"testing"

	"seesaw/internal/service"
)

// TestClusterEvaluatorMatchesLocal: the same search evaluated remotely,
// one cluster batch per generation against an in-process daemon, finds
// the same front and the same paper-default score as the local
// PoolEvaluator search. Generation logs differ only in their source
// lines, so the results are compared, not the logs.
func TestClusterEvaluatorMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole search twice")
	}
	var localLog, remoteLog bytes.Buffer
	local := runSearch(t, testOptions(&localLog), newLocalEvaluator(nil))

	svc := service.New(service.Config{Workers: 2, Logger: log.New(io.Discard, "", 0)})
	ts := httptest.NewServer(svc.Handler())
	defer func() { ts.Close(); svc.Close() }()
	remote := runSearch(t, testOptions(&remoteLog), NewClusterEvaluator(ts.URL))

	if !frontsEqual(local.Front, remote.Front) {
		t.Fatalf("cluster front differs from local:\nlocal  %v\nremote %v", local.Front, remote.Front)
	}
	if local.Default.Obj != remote.Default.Obj || local.Default.Score != remote.Default.Score {
		t.Errorf("paper default scored differently: local %+v, remote %+v", local.Default, remote.Default)
	}
	if local.Evaluations != remote.Evaluations || local.Generations != remote.Generations {
		t.Errorf("search shape differs: local %d evals/%d gens, remote %d/%d",
			local.Evaluations, local.Generations, remote.Evaluations, remote.Generations)
	}
}
