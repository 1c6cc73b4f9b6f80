// Sibling fixture package: helpers the a package calls across a package
// boundary. The analyzers resolve them through the cross-package program
// view built by analysis.Run.
package util

type Request struct{}

func (r *Request) Wait() ([]byte, error) { return nil, nil }

type Comm struct{}

func (c *Comm) Irecv(src, tag int) *Request { return nil }

// StartRecv returns a request it started: the caller inherits the
// completion obligation.
func StartRecv(c *Comm) *Request {
	return c.Irecv(1, 0)
}

// Finish completes the request on behalf of the caller.
func Finish(r *Request) {
	_, _ = r.Wait()
}
