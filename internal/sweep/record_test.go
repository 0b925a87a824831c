package sweep

import (
	"bytes"
	"errors"
	"testing"
)

// TestRecordRoundTrip pins the codec: append then decode returns the
// original (index, payload) pairs and consumes the stream exactly.
func TestRecordRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte("hello"),
		nil,
		bytes.Repeat([]byte{0xAB}, 300), // multi-byte length varint
		{0},
	}
	stream := EncodeRecords(payloads)
	indices, got, err := DecodeRecords(stream)
	if err != nil {
		t.Fatalf("DecodeRecords: %v", err)
	}
	if len(got) != len(payloads) {
		t.Fatalf("decoded %d records, want %d", len(got), len(payloads))
	}
	for i := range payloads {
		if indices[i] != i {
			t.Errorf("record %d decoded with index %d", i, indices[i])
		}
		if !bytes.Equal(got[i], payloads[i]) {
			t.Errorf("record %d payload mismatch", i)
		}
	}
}

// TestRecordTruncationDetected pins the crash-safety contract: every
// proper prefix of a record stream either decodes fewer whole records or
// fails with ErrRecordTruncated — never with a wrong payload.
func TestRecordTruncationDetected(t *testing.T) {
	payloads := [][]byte{[]byte("first"), []byte("second record payload")}
	stream := EncodeRecords(payloads)
	first := AppendRecord(nil, 0, payloads[0])
	for cut := 0; cut < len(stream); cut++ {
		prefix := stream[:cut]
		indices, got, err := DecodeRecords(prefix)
		if err != nil {
			if !errors.Is(err, ErrRecordTruncated) {
				t.Fatalf("cut at %d: got %v, want ErrRecordTruncated", cut, err)
			}
			continue
		}
		// A clean decode of a prefix must be exactly the whole records
		// that fit: nothing, or the first record alone.
		switch len(got) {
		case 0:
			if cut != 0 {
				t.Errorf("cut at %d decoded zero records without error", cut)
			}
		case 1:
			if cut != len(first) || indices[0] != 0 || !bytes.Equal(got[0], payloads[0]) {
				t.Errorf("cut at %d decoded unexpected record", cut)
			}
		default:
			t.Errorf("cut at %d decoded %d records from a truncated stream", cut, len(got))
		}
	}
}

// TestRecordCorruptionDetected flips every single bit of a framed record
// and requires the decoder to notice. CRC32 detects all single-bit
// errors, and the checksum covers the framing varints too, so a flip
// anywhere in the frame must surface as truncated or corrupt — never as
// a clean decode.
func TestRecordCorruptionDetected(t *testing.T) {
	payload := []byte("the payload under test")
	stream := AppendRecord(nil, 7, payload)
	for i := range stream {
		for bit := 0; bit < 8; bit++ {
			mutated := bytes.Clone(stream)
			mutated[i] ^= 1 << bit
			if _, _, _, err := DecodeRecord(mutated); err == nil {
				t.Errorf("flip of bit %d in byte %d decoded cleanly", bit, i)
			} else if !errors.Is(err, ErrRecordCorrupt) && !errors.Is(err, ErrRecordTruncated) {
				t.Errorf("flip of bit %d in byte %d: unexpected error %v", bit, i, err)
			}
		}
	}
}

// TestEncodeRecordsMergeIdentity pins the merge contract at the codec
// level: concatenating per-shard record sets in index order reproduces
// EncodeRecords byte for byte, for every shard count.
func TestEncodeRecordsMergeIdentity(t *testing.T) {
	payloads := make([][]byte, 9)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i + 1)}, i*3+1)
	}
	want := EncodeRecords(payloads)
	for _, shards := range []int{1, 2, 4, 8} {
		byIndex := make(map[int][]byte)
		for s := 0; s < shards; s++ {
			for _, i := range ShardIndices(len(payloads), shards, s) {
				byIndex[i] = AppendRecord(nil, i, payloads[i])
			}
		}
		var merged []byte
		for i := range payloads {
			merged = append(merged, byIndex[i]...)
		}
		if !bytes.Equal(merged, want) {
			t.Errorf("merged stream at %d shards differs from single-process encoding", shards)
		}
	}
}

// splitPayloads cuts data into consecutive payloads whose lengths come
// from sizes (clamped to what is left); the remainder is the last payload.
func splitPayloads(data, sizes []byte) [][]byte {
	payloads := make([][]byte, 0, len(sizes)+1)
	for _, n := range sizes {
		k := min(int(n), len(data))
		payloads = append(payloads, data[:k])
		data = data[k:]
	}
	return append(payloads, data)
}

// FuzzDecodeRecords fuzzes the record framing that shard recovery and
// merged-artifact reads decode. Three properties:
//
//   - arbitrary bytes never panic the decoder, and every error it returns
//     is ErrRecordTruncated or ErrRecordCorrupt;
//   - EncodeRecords of payloads cut from the input round-trips through
//     DecodeRecords;
//   - every proper prefix of that valid stream decodes to a prefix of its
//     records (ending exactly on a record boundary) or reports
//     ErrRecordTruncated.
func FuzzDecodeRecords(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add(EncodeRecords([][]byte{[]byte("hello"), nil, {0}}), []byte{5, 0})
	f.Add(bytes.Repeat([]byte{0xAB}, 300), []byte{200}) // multi-byte length varint
	f.Add(bytes.Repeat([]byte{0xFF}, 11), []byte{})     // overlong index varint
	f.Add([]byte{0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, []byte{1, 1, 1})
	f.Fuzz(func(t *testing.T, data, sizes []byte) {
		indices, got, err := DecodeRecords(data)
		if err != nil {
			if !errors.Is(err, ErrRecordTruncated) && !errors.Is(err, ErrRecordCorrupt) {
				t.Fatalf("DecodeRecords(%x): unexpected error %v", data, err)
			}
		} else if len(indices) != len(got) {
			t.Fatalf("DecodeRecords(%x): %d indices for %d payloads", data, len(indices), len(got))
		}

		payloads := splitPayloads(data, sizes)
		stream := EncodeRecords(payloads)
		indices, got, err = DecodeRecords(stream)
		if err != nil {
			t.Fatalf("round trip of %d payloads: %v", len(payloads), err)
		}
		if len(got) != len(payloads) {
			t.Fatalf("round trip decoded %d records, want %d", len(got), len(payloads))
		}
		for i := range payloads {
			if indices[i] != i || !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("round trip record %d: index %d payload %x, want %x", i, indices[i], got[i], payloads[i])
			}
		}

		// ends[k] is the stream length after the first k records.
		ends := make([]int, 1, len(payloads)+1)
		var framed []byte
		for i, p := range payloads {
			framed = AppendRecord(framed, i, p)
			ends = append(ends, len(framed))
		}
		for cut := 0; cut < len(stream); cut++ {
			indices, got, err := DecodeRecords(stream[:cut])
			if err != nil {
				if !errors.Is(err, ErrRecordTruncated) {
					t.Fatalf("cut at %d of %d: got %v, want ErrRecordTruncated", cut, len(stream), err)
				}
				continue
			}
			if ends[len(got)] != cut {
				t.Fatalf("cut at %d decoded %d records, which end at %d", cut, len(got), ends[len(got)])
			}
			for i := range got {
				if indices[i] != i || !bytes.Equal(got[i], payloads[i]) {
					t.Fatalf("cut at %d: record %d decoded wrong", cut, i)
				}
			}
		}
	})
}
