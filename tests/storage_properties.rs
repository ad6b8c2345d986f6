//! Property tests of the storage layer: the varint block codec, zone/block
//! probes, and index merging, over arbitrary inputs.

use proptest::prelude::*;

use ndss::index::varint::{decode_block, encode_block, read_varint, write_varint};
use ndss::index::{inv_file_path, merge_indexes, IndexAccess, Posting};
use ndss::prelude::*;
use ndss::windows::CompactWindow;

/// Strategy: a sorted, valid posting list (texts ascending, l ≤ c ≤ r).
fn posting_list() -> impl Strategy<Value = Vec<Posting>> {
    proptest::collection::vec((0u32..50, 0u32..100, 0u32..20, 0u32..30), 1..120).prop_map(|raw| {
        let mut list: Vec<Posting> = raw
            .into_iter()
            .map(|(text, l, dc, dr)| Posting {
                text,
                window: CompactWindow::new(l, l + dc, l + dc + dr),
            })
            .collect();
        list.sort_unstable();
        list
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn varint_roundtrips(v in proptest::num::u64::ANY) {
        let mut buf = Vec::new();
        write_varint(v, &mut buf);
        let (back, used) = read_varint(&buf).unwrap();
        prop_assert_eq!(back, v);
        prop_assert_eq!(used, buf.len());
    }

    #[test]
    fn codec_roundtrips_arbitrary_sorted_lists(list in posting_list()) {
        let mut encoded = Vec::new();
        encode_block(&list, &mut encoded);
        let mut decoded = Vec::new();
        let used = decode_block(&encoded, list.len(), &mut decoded).unwrap();
        prop_assert_eq!(used, encoded.len());
        prop_assert_eq!(decoded, list);
    }

    #[test]
    fn merge_equals_direct_build_for_random_splits(
        seed in 0u64..1000,
        cut_fraction in 0.1f64..0.9,
    ) {
        let (corpus, _) = SyntheticCorpusBuilder::new(seed)
            .num_texts(24)
            .text_len(40, 90)
            .vocab_size(200)
            .build();
        let all: Vec<Vec<u32>> = (0..corpus.num_texts() as u32)
            .map(|i| corpus.text(i).to_vec())
            .collect();
        let cut = ((all.len() as f64 * cut_fraction) as usize).clamp(1, all.len() - 1);
        let a = InMemoryCorpus::from_texts(all[..cut].to_vec());
        let b = InMemoryCorpus::from_texts(all[cut..].to_vec());

        let config = IndexConfig::new(2, 10, 99);
        let base = std::env::temp_dir()
            .join("ndss_prop_merge")
            .join(format!("{seed}_{cut}"));
        std::fs::remove_dir_all(&base).ok();
        for sub in ["a", "b", "m", "full"] {
            std::fs::create_dir_all(base.join(sub)).unwrap();
        }
        ndss::index::build_and_write(&a, config.clone(), &base.join("a"), false).unwrap();
        ndss::index::build_and_write(&b, config.clone(), &base.join("b"), false).unwrap();
        merge_indexes(&[&base.join("a"), &base.join("b")], &base.join("m")).unwrap();
        ndss::index::build_and_write(&corpus, config, &base.join("full"), false).unwrap();
        for func in 0..2 {
            prop_assert_eq!(
                std::fs::read(inv_file_path(&base.join("m"), func)).unwrap(),
                std::fs::read(inv_file_path(&base.join("full"), func)).unwrap()
            );
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn per_text_probes_match_full_list_filter(
        seed in 0u64..500,
        probe_text in 0u32..40,
    ) {
        let (corpus, _) = SyntheticCorpusBuilder::new(seed)
            .num_texts(40)
            .text_len(60, 150)
            .vocab_size(100) // long lists with many texts per list
            .build();
        let base = std::env::temp_dir()
            .join("ndss_prop_probe")
            .join(format!("{seed}"));
        for (compress, sub) in [(false, "v3"), (true, "v4")] {
            let dir = base.join(sub);
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            let config = IndexConfig::new(1, 8, 3).zone_map(4, 8).compressed(compress);
            let disk = ndss::index::build_and_write(&corpus, config, &dir, false).unwrap();
            // Probe the longest list.
            let hist = disk.list_length_histogram(0).unwrap();
            let longest = hist.last().unwrap().0;
            // Find its hash by scanning memory build.
            let mem = MemoryIndex::build(
                &corpus,
                IndexConfig::new(1, 8, 3),
            )
            .unwrap();
            let (hash, full) = mem
                .sorted_lists(0)
                .into_iter()
                .find(|(_, v)| v.len() as u64 == longest)
                .unwrap();
            let expect: Vec<Posting> = full
                .iter()
                .filter(|p| p.text == probe_text)
                .copied()
                .collect();
            let got = disk.read_postings_for_text(0, hash, probe_text).unwrap();
            prop_assert_eq!(got, expect);
        }
        std::fs::remove_dir_all(&base).ok();
    }
}
