package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// The AQCP container layout (all fixed integers little-endian u32):
//
//	"AQCP" | version | headerLen header crc32(header)
//	     | sectionCount
//	     | { nameLen name bodyLen body crc32(name‖body) } × sectionCount
//	     | crc32(everything above)
//
// The header is an opaque blob owned by the producer (internal/serve encodes
// seed, virtual time, interval index, journal position and config digest into
// it with an Encoder). Sections are named blobs; internal/serve stores the
// SHA-256 of each component snapshot as one. Every layer is CRC-guarded and
// length-validated so truncation or bit flips anywhere are detected before
// any stored section is compared with a re-derived one.

// Magic identifies an AQCP checkpoint file.
const Magic = "AQCP"

// Version is the current format version. Decode rejects any other value:
// snapshot state is tightly coupled to component struct layout, so skew
// always means "refuse and re-run" rather than best-effort migration.
// Version 1 stored the span log and latency lists as blobs, version 2 each
// whole component snapshot; version 3 stores one digest per section.
const Version uint32 = 3

// Section is one named blob inside a File.
type Section struct {
	Name string
	Data []byte
}

// File is a decoded (or to-be-encoded) checkpoint container.
type File struct {
	Version  uint32
	Header   []byte
	Sections []Section
}

// Section returns the named section's bytes.
//
//aqualint:allow unreached test observer: checkpoint and serve tests read sections by name through it
func (f *File) Section(name string) ([]byte, bool) {
	for _, s := range f.Sections {
		if s.Name == name {
			return s.Data, true
		}
	}
	return nil, false
}

// AddSection appends a named section. Names must be unique; producers add
// them in sorted order so equal state yields equal files.
func (f *File) AddSection(name string, data []byte) {
	f.Sections = append(f.Sections, Section{Name: name, Data: data})
}

// SortSections orders sections by name, the canonical on-disk order.
func (f *File) SortSections() {
	sort.Slice(f.Sections, func(i, j int) bool { return f.Sections[i].Name < f.Sections[j].Name })
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// Encode serializes the container. Sections are written in their current
// order; call SortSections first for canonical output.
func (f *File) Encode() []byte {
	buf := make([]byte, 0, 256)
	buf = append(buf, Magic...)
	buf = appendU32(buf, Version)
	buf = appendU32(buf, uint32(len(f.Header)))
	buf = append(buf, f.Header...)
	buf = appendU32(buf, crc32.ChecksumIEEE(f.Header))
	buf = appendU32(buf, uint32(len(f.Sections)))
	for _, s := range f.Sections {
		buf = appendU32(buf, uint32(len(s.Name)))
		buf = append(buf, s.Name...)
		buf = appendU32(buf, uint32(len(s.Data)))
		buf = append(buf, s.Data...)
		crc := crc32.NewIEEE()
		crc.Write([]byte(s.Name)) //aqualint:allow droppederr hash.Hash Write never returns an error
		crc.Write(s.Data)         //aqualint:allow droppederr hash.Hash Write never returns an error
		buf = appendU32(buf, crc.Sum32())
	}
	buf = appendU32(buf, crc32.ChecksumIEEE(buf))
	return buf
}

type reader struct {
	data []byte
	off  int
}

func (r *reader) u32(what string) (uint32, error) {
	if r.off+4 > len(r.data) {
		return 0, corrupt("truncated %s at offset %d", what, r.off)
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) bytes(n uint32, what string) ([]byte, error) {
	if uint64(r.off)+uint64(n) > uint64(len(r.data)) {
		return nil, corrupt("truncated %s: need %d bytes at offset %d, have %d", what, n, r.off, len(r.data)-r.off)
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

// Decode parses and fully validates an AQCP container. It returns an error —
// never panics, never a partial File — on truncation, bit flips (CRC
// mismatch at any layer), version skew, duplicate section names, or trailing
// garbage.
func Decode(data []byte) (*File, error) {
	r := &reader{data: data}
	magic, err := r.bytes(4, "magic")
	if err != nil {
		return nil, err
	}
	if string(magic) != Magic {
		return nil, corrupt("bad magic %q", magic)
	}
	version, err := r.u32("version")
	if err != nil {
		return nil, err
	}
	if version != Version {
		return nil, fmt.Errorf("%w: unsupported snapshot version %d (supported: %d)", ErrCorrupt, version, Version)
	}
	// Whole-file CRC first: it catches any corruption in one shot.
	if len(data) < r.off+4 {
		return nil, corrupt("truncated file")
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, corrupt("file checksum mismatch")
	}
	r.data = body // keep the trailer out of section parsing

	hlen, err := r.u32("header length")
	if err != nil {
		return nil, err
	}
	header, err := r.bytes(hlen, "header")
	if err != nil {
		return nil, err
	}
	hcrc, err := r.u32("header checksum")
	if err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(header) != hcrc {
		return nil, corrupt("header checksum mismatch")
	}
	count, err := r.u32("section count")
	if err != nil {
		return nil, err
	}
	f := &File{Version: version, Header: append([]byte(nil), header...)}
	seen := make(map[string]bool, count)
	for i := uint32(0); i < count; i++ {
		nlen, err := r.u32("section name length")
		if err != nil {
			return nil, err
		}
		nameB, err := r.bytes(nlen, "section name")
		if err != nil {
			return nil, err
		}
		name := string(nameB)
		if seen[name] {
			return nil, corrupt("duplicate section %q", name)
		}
		seen[name] = true
		blen, err := r.u32("section body length")
		if err != nil {
			return nil, err
		}
		bodyB, err := r.bytes(blen, "section body")
		if err != nil {
			return nil, err
		}
		scrc, err := r.u32("section checksum")
		if err != nil {
			return nil, err
		}
		crc := crc32.NewIEEE()
		crc.Write(nameB) //aqualint:allow droppederr hash.Hash Write never returns an error
		crc.Write(bodyB) //aqualint:allow droppederr hash.Hash Write never returns an error
		if crc.Sum32() != scrc {
			return nil, corrupt("section %q checksum mismatch", name)
		}
		f.AddSection(name, append([]byte(nil), bodyB...))
	}
	if r.off != len(r.data) {
		return nil, corrupt("%d trailing bytes after sections", len(r.data)-r.off)
	}
	return f, nil
}

// WriteFile writes the container atomically: encode to path.tmp, fsync,
// rename over path, fsync the directory. A crash at any point leaves either
// the previous file intact or the new one complete — never a torn mix.
func WriteFile(path string, f *File) error {
	data := f.Encode()
	dir := filepath.Dir(path)
	tmp := path + ".tmp"
	fd, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := fd.Write(data); err != nil {
		_ = fd.Close()     //aqualint:allow droppederr best-effort cleanup on an already-failing write path
		_ = os.Remove(tmp) //aqualint:allow droppederr best-effort cleanup on an already-failing write path
		return err
	}
	if err := fd.Sync(); err != nil {
		_ = fd.Close()     //aqualint:allow droppederr best-effort cleanup on an already-failing write path
		_ = os.Remove(tmp) //aqualint:allow droppederr best-effort cleanup on an already-failing write path
		return err
	}
	if err := fd.Close(); err != nil {
		_ = os.Remove(tmp) //aqualint:allow droppederr best-effort cleanup on an already-failing write path
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp) //aqualint:allow droppederr best-effort cleanup on an already-failing write path
		return err
	}
	if d, err := os.Open(dir); err == nil {
		// Directory fsync is best-effort durability for the rename; a
		// failure cannot un-rename the complete file.
		_ = d.Sync()  //aqualint:allow droppederr rename already durable-complete; dir fsync is best-effort
		_ = d.Close() //aqualint:allow droppederr read-only directory handle
	}
	return nil
}

// ReadFile reads and validates a checkpoint file.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
