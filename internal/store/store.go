// Package store is the on-disk snapshot store behind warm starts and
// zero-downtime corpus reloads: one checksummed gob snapshot per advisor
// (the core.Advisor Save stream) plus a JSON manifest describing where the
// snapshot came from (source path and content hash), when it was built, and
// what bytes to expect (sha256 checksum, payload size).
//
// Crash safety is the point of the layout. Every write goes through a
// temporary file in the same directory, is fsynced, and is moved into place
// with an atomic rename, so a snapshot file is either the complete old
// version or the complete new version — never a torn write. The manifest is
// written after its payload: a crash between the two leaves a payload whose
// manifest still describes the previous bytes, which Load detects as a
// checksum mismatch and reports as ErrCorrupt. Callers (the lifecycle
// manager) treat ErrCorrupt as "rebuild from source", never as a fatal
// startup error, and Quarantine the bad files for post-mortems. Load takes
// the source hash the caller expects and reports a snapshot of another
// source version as ErrStale, without reading its payload.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// FormatVersion guards the store layout (file naming + manifest schema).
// The advisor payload carries its own gob-level version inside the stream
// (see core.LoadAdvisor); this one covers everything around it.
const FormatVersion = 1

// File suffixes of the store layout. A quarantined pair keeps its name with
// badSuffix appended, so operators can inspect what the checksum rejected.
const (
	snapSuffix     = ".snap"
	manifestSuffix = ".json"
	badSuffix      = ".bad"
	tmpSuffix      = ".tmp"
)

// ErrNotFound: no snapshot exists under that name (a clean miss — cold
// build, don't quarantine).
var ErrNotFound = errors.New("store: snapshot not found")

// ErrCorrupt: the snapshot exists but cannot be trusted — truncated or
// tampered payload, checksum mismatch, unreadable manifest, or a format
// version this binary does not speak. The caller should fall back to a cold
// build and may Quarantine the files.
var ErrCorrupt = errors.New("store: snapshot corrupt")

// ErrStale: the snapshot's manifest records another source hash than the
// caller's, so it describes another version of the source. Its payload is
// not read; the caller rebuilds and overwrites it, no quarantine needed.
var ErrStale = errors.New("store: snapshot stale")

// Manifest describes one stored snapshot — the JSON sidecar of a .snap file.
type Manifest struct {
	FormatVersion int       `json:"format_version"`
	Advisor       string    `json:"advisor"`
	SourcePath    string    `json:"source_path,omitempty"`
	SourceHash    string    `json:"source_hash"`
	BuiltAt       time.Time `json:"built_at"`
	Checksum      string    `json:"checksum"` // sha256 hex of the .snap payload
	Bytes         int64     `json:"bytes"`    // payload size
	Rules         int       `json:"rules"`
	Sentences     int       `json:"sentences"`
}

// Store is a directory of advisor snapshots. Methods are safe for use from
// one process; two processes writing the same name race on "which complete
// snapshot wins", never on torn bytes (renames are atomic).
type Store struct {
	dir string
	flt *fault.Injector // nil unless fault injection is enabled
}

// SetFaults wires a fault injector into the store's I/O paths (store.write,
// store.read). A nil injector — the production default — costs one nil
// check per operation. Call before handing the store to concurrent users.
func (s *Store) SetFaults(in *fault.Injector) { s.flt = in }

// Open creates (if needed) and returns the store at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// validName rejects names that would escape the store directory or collide
// with the store's own suffix conventions.
func validName(name string) error {
	if name == "" {
		return errors.New("store: empty snapshot name")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("store: invalid snapshot name %q", name)
		}
	}
	if strings.HasPrefix(name, ".") || strings.Contains(name, "..") {
		return fmt.Errorf("store: invalid snapshot name %q", name)
	}
	return nil
}

func (s *Store) snapPath(name string) string     { return filepath.Join(s.dir, name+snapSuffix) }
func (s *Store) manifestPath(name string) string { return filepath.Join(s.dir, name+manifestSuffix) }

// Save snapshots the advisor under name. sourcePath (may be "") and
// sourceHash describe the advisor's source document, so a later Load can
// tell a fresh snapshot from a stale one. The payload lands first, the
// manifest second, both through temp-file + fsync + atomic rename; a crash
// at any point leaves either the previous complete snapshot or the new one.
func (s *Store) Save(name string, a *core.Advisor, sourcePath, sourceHash string) (Manifest, error) {
	if err := validName(name); err != nil {
		return Manifest{}, err
	}
	var payload bytes.Buffer
	if err := a.Save(&payload); err != nil {
		return Manifest{}, fmt.Errorf("store: encode %s: %w", name, err)
	}
	data := payload.Bytes()
	man := Manifest{
		FormatVersion: FormatVersion,
		Advisor:       name,
		SourcePath:    sourcePath,
		SourceHash:    sourceHash,
		BuiltAt:       time.Now().UTC(),
		Checksum:      HashBytes(data),
		Bytes:         int64(len(data)),
		Rules:         len(a.Rules()),
		Sentences:     a.SentenceCount(),
	}
	manData, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return Manifest{}, fmt.Errorf("store: manifest %s: %w", name, err)
	}
	if ferr := s.flt.Err(fault.StoreWrite); ferr != nil {
		// clean injected write failure: nothing on disk changed
		return Manifest{}, fmt.Errorf("store: save %s: %w", name, ferr)
	}
	if torn, mangled := s.flt.Mangle(fault.StoreWrite, data); mangled {
		// simulated crash mid-save: the truncated payload lands (atomically,
		// as a real crash-then-rename interleaving would), the manifest is
		// never written, and the caller sees a failure. A later Load finds
		// the old manifest describing different bytes -> ErrCorrupt.
		_ = s.writeAtomic(s.snapPath(name), torn)
		return Manifest{}, fmt.Errorf("store: save %s: %w (torn write)", name, fault.ErrInjected)
	}
	if err := s.writeAtomic(s.snapPath(name), data); err != nil {
		return Manifest{}, err
	}
	if err := s.writeAtomic(s.manifestPath(name), append(manData, '\n')); err != nil {
		return Manifest{}, err
	}
	return man, nil
}

// writeAtomic writes data to path via a same-directory temp file, fsync,
// atomic rename, and a directory fsync so the rename itself is durable.
func (s *Store) writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, filepath.Base(path)+tmpSuffix+"*")
	if err != nil {
		return fmt.Errorf("store: temp for %s: %w", path, err)
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("store: fsync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: close %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: rename %s: %w", path, err)
	}
	return s.syncDir()
}

// syncDir fsyncs the store directory so completed renames survive a crash.
// Platforms that refuse directory fsync (it is advisory on some filesystems)
// don't fail the save — the rename already happened atomically.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

func (s *Store) readManifest(name string) (Manifest, error) {
	data, err := os.ReadFile(s.manifestPath(name))
	if err != nil {
		if os.IsNotExist(err) {
			// manifest missing: a payload with no manifest is an interrupted
			// or foreign write — corrupt; neither file is a clean miss
			if _, serr := os.Stat(s.snapPath(name)); serr == nil {
				return Manifest{}, fmt.Errorf("%w: %s has a payload but no manifest", ErrCorrupt, name)
			}
			return Manifest{}, fmt.Errorf("%w: %s", ErrNotFound, name)
		}
		return Manifest{}, fmt.Errorf("%w: read manifest %s: %v", ErrCorrupt, name, err)
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return Manifest{}, fmt.Errorf("%w: manifest %s: %v", ErrCorrupt, name, err)
	}
	if man.FormatVersion != FormatVersion {
		return Manifest{}, fmt.Errorf("%w: %s has format version %d, want %d",
			ErrCorrupt, name, man.FormatVersion, FormatVersion)
	}
	return man, nil
}

// Load reads, verifies, and decodes the snapshot under name, built from the
// source whose hash is sourceHash. A manifest recording another hash is
// ErrStale, and its payload is never read. Every failure mode after "the
// files simply aren't there" is reported as ErrCorrupt so callers can fall
// back to a rebuild; only a clean absence is ErrNotFound.
func (s *Store) Load(name, sourceHash string) (*core.Advisor, Manifest, error) {
	if err := validName(name); err != nil {
		return nil, Manifest{}, err
	}
	man, err := s.readManifest(name)
	if err != nil {
		return nil, Manifest{}, err
	}
	if man.SourceHash != sourceHash {
		return nil, man, fmt.Errorf("%w: %s was built from source %s, not %s", ErrStale, name, man.SourceHash, sourceHash)
	}
	if ferr := s.flt.Err(fault.StoreRead); ferr != nil {
		// an injected read failure surfaces exactly like a real I/O error:
		// as corruption, so callers fall back to a rebuild
		return nil, man, fmt.Errorf("%w: read payload %s: %v", ErrCorrupt, name, ferr)
	}
	data, err := os.ReadFile(s.snapPath(name))
	if err != nil {
		return nil, man, fmt.Errorf("%w: read payload %s: %v", ErrCorrupt, name, err)
	}
	if int64(len(data)) != man.Bytes {
		return nil, man, fmt.Errorf("%w: %s payload is %d bytes, manifest says %d",
			ErrCorrupt, name, len(data), man.Bytes)
	}
	if sum := HashBytes(data); sum != man.Checksum {
		return nil, man, fmt.Errorf("%w: %s checksum %s, manifest says %s",
			ErrCorrupt, name, sum, man.Checksum)
	}
	a, err := core.LoadAdvisor(bytes.NewReader(data))
	if err != nil {
		return nil, man, fmt.Errorf("%w: decode %s: %v", ErrCorrupt, name, err)
	}
	a.SetName(man.Advisor)
	return a, man, nil
}

// Quarantine moves the snapshot pair aside (name.snap -> name.snap.bad,
// same for the manifest) so the next Load is a clean miss while the
// rejected bytes stay available for inspection. Missing files are fine —
// quarantining half a pair quarantines the half that exists.
func (s *Store) Quarantine(name string) error {
	if err := validName(name); err != nil {
		return err
	}
	var firstErr error
	for _, path := range []string{s.snapPath(name), s.manifestPath(name)} {
		if _, err := os.Stat(path); err != nil {
			continue
		}
		if err := os.Rename(path, path+badSuffix); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("store: quarantine %s: %w", path, err)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	return s.syncDir()
}

// HashBytes returns the sha256 hex digest of b — the checksum and
// source-hash primitive the store and its callers share.
func HashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// HashFile returns the sha256 hex digest of the file's contents.
func HashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
