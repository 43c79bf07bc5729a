package lint

import (
	"bytes"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

const serverSourcePath = "../../internal/server/server.go"

// readPristineServer loads the real internal/server/server.go and requires
// ackorder to pass it as it stands.
func readPristineServer(t *testing.T) []byte {
	t.Helper()
	src, err := os.ReadFile(serverSourcePath)
	if err != nil {
		t.Fatalf("reading server source: %v", err)
	}
	pristine, err := NewRepoFromSource("internal/server/server.go", string(src))
	if err != nil {
		t.Fatalf("server.go does not parse: %v", err)
	}
	if findings := pristine.Run([]*Analyzer{ByName("ackorder")}); len(findings) != 0 {
		t.Fatalf("pristine server.go already flagged: %v", findings)
	}
	return src
}

func stmtContains(st ast.Stmt, pred func(ast.Node) bool) bool {
	found := false
	ast.Inspect(st, func(n ast.Node) bool {
		if !found && pred(n) {
			found = true
		}
		return !found
	})
	return found
}

func callsNamed(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		return ok && calleeName(call) == name
	}
}

func isSend(n ast.Node) bool {
	_, ok := n.(*ast.SendStmt)
	return ok
}

// reorderServer rewrites server.go: in the first statement list where some
// statement's subtree matches earlier and a LATER statement's subtree
// matches later, it either moves the later statement in front of the earlier
// one (laterFirst) or the earlier statement behind the later one, and
// returns the re-rendered source.
func reorderServer(t *testing.T, src []byte, earlier, later func(ast.Node) bool, laterFirst bool) string {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "server.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	ast.Inspect(file, func(n ast.Node) bool {
		if moved {
			return false
		}
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		ei, li := -1, -1
		for i, st := range block.List {
			if ei < 0 && stmtContains(st, earlier) {
				ei = i
				continue
			}
			if ei >= 0 && li < 0 && stmtContains(st, later) {
				li = i
			}
		}
		if ei < 0 || li < 0 {
			return true
		}
		reordered := make([]ast.Stmt, 0, len(block.List))
		reordered = append(reordered, block.List[:ei]...)
		if laterFirst {
			reordered = append(reordered, block.List[li])
			reordered = append(reordered, block.List[ei:li]...)
		} else {
			reordered = append(reordered, block.List[ei+1:li+1]...)
			reordered = append(reordered, block.List[ei])
		}
		block.List = append(reordered, block.List[li+1:]...)
		moved = true
		return false
	})
	if !moved {
		t.Fatal("server.go has no statement list with the two steps in order; the acceptance reorder needs updating")
	}
	var buf bytes.Buffer
	if err := format.Node(&buf, fset, file); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// requireUnackedSendFlagged runs ackorder over a rewritten server.go and
// requires a finding that names the result send.
func requireUnackedSendFlagged(t *testing.T, src, what string) {
	t.Helper()
	requireAckFlagged(t, map[string]string{"internal/server/server.go": src}, "result send", what)
}

// requireAckFlagged runs ackorder over rewritten server sources and requires
// a finding that names the ack kind.
func requireAckFlagged(t *testing.T, files map[string]string, kind, what string) {
	t.Helper()
	scratch, err := NewRepoFromSources(files)
	if err != nil {
		t.Fatalf("reordered server sources do not parse: %v", err)
	}
	findings := scratch.Run([]*Analyzer{ByName("ackorder")})
	if len(findings) == 0 {
		t.Fatalf("%s, but ackorder stayed silent", what)
	}
	for _, f := range findings {
		if f.Analyzer == "ackorder" && strings.Contains(f.Message, kind+" is not preceded") {
			return
		}
	}
	t.Fatalf("no ackorder finding names the reordered %s; got: %v", kind, findings)
}

// TestAckOrderCatchesReorderedAck is the acceptance check for the
// exactly-once static rule: take the real internal/server/server.go, move
// the ack send ahead of the engine Offer call inside processEpoch (the
// two-phase processEpoch keeps them in sibling loops of one function body) —
// the client is told "admitted" before the decision is even written — and
// require ackorder to flag the scratch copy while passing the pristine one.
func TestAckOrderCatchesReorderedAck(t *testing.T) {
	src := readPristineServer(t)
	reordered := reorderServer(t, src, callsNamed("Offer"), isSend, true)
	requireUnackedSendFlagged(t, reordered, "ack send reordered before the journal-bearing Offer")
}

// TestAckOrderCatchesCommitBelowSend is the group-commit half of the same
// check: the epoch's records are written by Offer but durable only once the
// Commit barrier returns, so moving the commit below the first ack send — the
// decisions journaled, the fsync still pending — must be flagged too. Offer
// alone no longer dominates an ack.
func TestAckOrderCatchesCommitBelowSend(t *testing.T) {
	src := readPristineServer(t)
	reordered := reorderServer(t, src, callsNamed("Commit"), isSend, false)
	requireUnackedSendFlagged(t, reordered, "commit barrier moved below the first ack send")
}

// isReplyStore matches the store of a decision into its POST's reply slot.
func isReplyStore(n ast.Node) bool {
	as, ok := n.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 {
		return false
	}
	ix, ok := as.Lhs[0].(*ast.IndexExpr)
	if !ok {
		return false
	}
	sel, ok := ix.X.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "replies"
}

// TestAckOrderCatchesReplyStoreAboveCommit: a POST's decisions are acked by
// the store into its reply slots, so moving the delivery loop that stores
// them above the epoch's Commit — the handler could answer before the fsync —
// must be flagged as an unacked reply store.
func TestAckOrderCatchesReplyStoreAboveCommit(t *testing.T) {
	src := readPristineServer(t)
	reordered := reorderServer(t, src, callsNamed("Commit"), isReplyStore, true)
	requireAckFlagged(t, map[string]string{"internal/server/server.go": reordered},
		"reply store", "reply store moved above the commit barrier")
}

// serverSources reads the real internal/server package, tests excluded, by
// repo-relative path, and requires ackorder to pass it as it stands.
func serverSources(t *testing.T) map[string]string {
	t.Helper()
	entries, err := os.ReadDir("../../internal/server")
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string)
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			src, err := os.ReadFile("../../internal/server/" + name)
			if err != nil {
				t.Fatal(err)
			}
			files["internal/server/"+name] = string(src)
		}
	}
	pristine, err := NewRepoFromSources(files)
	if err != nil {
		t.Fatalf("internal/server does not parse: %v", err)
	}
	if findings := pristine.Run([]*Analyzer{ByName("ackorder")}); len(findings) != 0 {
		t.Fatalf("pristine internal/server already flagged: %v", findings)
	}
	return files
}

// TestAckOrderCatchesWriteAboveDispatch: /admit acks by writing the bytes
// its AdmitResponses were appended into, so moving that write above dispatch
// in http.go — the client told before its decisions are durable — must be
// flagged as an unacked AdmitResponse write. The package is checked whole,
// so the write is recognised through resolved types.
func TestAckOrderCatchesWriteAboveDispatch(t *testing.T) {
	files := serverSources(t)
	const httpGo = "internal/server/http.go"
	files[httpGo] = reorderServer(t, []byte(files[httpGo]), callsNamed("dispatch"), callsNamed("Write"), true)
	requireAckFlagged(t, files, "AdmitResponse write", "ResponseWriter write moved above dispatch")
}
