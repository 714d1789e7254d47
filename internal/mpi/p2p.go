package mpi

import "fmt"

// Send delivers data to dst (a comm rank) with the given tag. The data slice
// is copied before handoff, so the caller may reuse it immediately —
// matching MPI_Send's buffer semantics.
func (c *Comm) Send(dst, tag int, data []byte) error {
	if err := c.checkRank(dst); err != nil {
		return err
	}
	if err := checkTag(tag); err != nil {
		return err
	}
	return c.sendRaw(dst, int32(tag), data)
}

// sendRaw sends with an internal (possibly collective-range) tag.
func (c *Comm) sendRaw(dst int, tag int32, data []byte) error {
	if err := c.eng.fence(c.gen); err != nil {
		return err
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	return c.eng.tr.send(c.glob[dst], envelope{
		ctx:  c.ctx,
		src:  int32(c.rank),
		tag:  tag,
		data: buf,
	})
}

// Irecv posts a non-blocking receive for a message from src with the given
// tag. The message payload is available from Request.Wait.
func (c *Comm) Irecv(src, tag int) (*Request, error) {
	if err := c.checkRank(src); err != nil {
		return nil, err
	}
	if err := checkTag(tag); err != nil {
		return nil, err
	}
	return c.irecvRaw(src, int32(tag)), nil
}

func (c *Comm) irecvRaw(src int, tag int32) *Request {
	req := newRequest()
	c.eng.post(matchKey{c.ctx, int32(src), tag}, c.gen, req)
	return req
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload.
func (c *Comm) Recv(src, tag int) ([]byte, error) {
	req, err := c.Irecv(src, tag)
	if err != nil {
		return nil, err
	}
	return req.Wait()
}

func (c *Comm) recvRaw(src int, tag int32) ([]byte, error) {
	data, err := c.irecvRaw(src, tag).Wait()
	if err != nil {
		return nil, fmt.Errorf("mpi: recv from %d tag %d: %w", src, tag, err)
	}
	return data, nil
}
