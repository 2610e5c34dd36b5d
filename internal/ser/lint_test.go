package ser

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestWireReadsAreBounded keeps the bounding of untrusted input in this
// package. It parses the non-test Go under internal/ and cmd/ and, in
// every package but this one, reports the two shapes that let a count
// off the wire go unbounded, and any recover of its own:
//   - int(…) or int64(…) applied directly to a ReadUvarint() call, which
//     wraps a hostile value negative — ReadCount and ReadIndex return
//     an int that is bounded and never negative;
//   - a make sized by a raw Read* call (through conversions), which
//     allocates whatever the input claims;
//   - a recover() call: a trust boundary runs its decoder under Decode.
func TestWireReadsAreBounded(t *testing.T) {
	root := filepath.Join("..", "..")
	self := filepath.Join(root, "internal", "ser")
	fset := token.NewFileSet()
	var findings []string
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") ||
				filepath.Dir(path) == self {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if msg := finding(call); msg != "" {
						findings = append(findings, fset.Position(call.Pos()).String()+": "+msg)
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// finding reports what is wrong with call, or "".
func finding(call *ast.CallExpr) string {
	fn, ok := call.Fun.(*ast.Ident)
	if !ok {
		return ""
	}
	switch fn.Name {
	case "recover":
		return "recover() outside ser.Decode: run the decoder under ser.Decode"
	case "int", "int64":
		if len(call.Args) == 1 && readName(call.Args[0]) == "ReadUvarint" {
			return fn.Name + "(…ReadUvarint()) can wrap negative: read it with ReadCount or ReadIndex"
		}
	case "make":
		for _, size := range call.Args[1:] {
			for {
				conv, ok := ast.Unparen(size).(*ast.CallExpr)
				if !ok || len(conv.Args) != 1 || !isIntType(conv.Fun) {
					break
				}
				size = conv.Args[0]
			}
			if name := readName(size); strings.HasPrefix(name, "Read") && name != "ReadCount" && name != "ReadIndex" {
				return "make sized by a raw " + name + "(): bound the size with ReadCount first"
			}
		}
	}
	return ""
}

// readName returns the method name of a call x.Name(…), or "".
func readName(e ast.Expr) string {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			return sel.Sel.Name
		}
	}
	return ""
}

func isIntType(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	switch id.Name {
	case "int", "int8", "int16", "int32", "int64", "uint", "uint8", "uint16", "uint32", "uint64", "uintptr":
		return true
	}
	return false
}
