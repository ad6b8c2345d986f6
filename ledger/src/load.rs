//! Load generation: corpora and queries, made from `--seed` alone.
//!
//! The ledger owns its inputs. The generator below has the shape of the
//! repository's synthetic corpus builder (Zipfian tokens, planted mutated
//! copies with provenance) but none of its code, so a change to the program
//! cannot change what the benchmark feeds it; the program under test
//! receives only token ids.

use crate::spec;

pub type Token = u32;
pub type Text = Vec<Token>;

/// xoshiro256** seeded through splitmix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound)`; `bound` must be positive. The modulo bias is
    /// below 2^-40 for every bound used here.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform in `[lo, hi]`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }
}

/// Truncated Zipf over `vocab` token ids: rank `r` has weight `1/(r+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(vocab: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(vocab);
        let mut acc = 0.0;
        for r in 0..vocab {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> Token {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as Token
    }
}

/// An inclusive token span of one text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub text: u32,
    pub start: u32,
    pub end: u32,
}

/// `dst` is a copy of `src` with some tokens resampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planted {
    pub src: Span,
    pub dst: Span,
}

pub struct Corpus {
    pub texts: Vec<Text>,
    pub planted: Vec<Planted>,
}

/// `texts` Zipfian texts; each text after the first receives
/// `dup_rate` planted copies (in expectation) of spans of earlier texts.
pub fn corpus(seed: u64, texts: usize, dup_rate: f64) -> Corpus {
    let mut rng = Rng::new(seed);
    let zipf = Zipf::new(spec::VOCAB, spec::ZIPF);
    let mut out: Vec<Text> = Vec::with_capacity(texts);
    let mut planted = Vec::new();
    for id in 0..texts {
        let len = rng.between(spec::TEXT_LEN.0, spec::TEXT_LEN.1);
        let mut text: Text = (0..len).map(|_| zipf.sample(&mut rng)).collect();
        if id > 0 {
            let mut copies = dup_rate.floor() as usize;
            if rng.next_f64() < dup_rate.fract() {
                copies += 1;
            }
            for _ in 0..copies {
                if let Some(p) = plant(&mut rng, &zipf, &out, id as u32, &mut text) {
                    planted.push(p);
                }
            }
        }
        out.push(text);
    }
    Corpus {
        texts: out,
        planted,
    }
}

fn plant(
    rng: &mut Rng,
    zipf: &Zipf,
    earlier: &[Text],
    dst: u32,
    text: &mut [Token],
) -> Option<Planted> {
    let len = rng
        .between(spec::DUP_LEN.0, spec::DUP_LEN.1)
        .min(text.len());
    for _ in 0..8 {
        let src = rng.below(earlier.len());
        let source = &earlier[src];
        if source.len() < len {
            continue;
        }
        let src_start = rng.below(source.len() - len + 1);
        let dst_start = rng.below(text.len() - len + 1);
        for offset in 0..len {
            text[dst_start + offset] = if rng.next_f64() < spec::MUTATION {
                zipf.sample(rng)
            } else {
                source[src_start + offset]
            };
        }
        return Some(Planted {
            src: Span {
                text: src as u32,
                start: src_start as u32,
                end: (src_start + len - 1) as u32,
            },
            dst: Span {
                text: dst,
                start: dst_start as u32,
                end: (dst_start + len - 1) as u32,
            },
        });
    }
    None
}

/// `count` windows of `QUERY_LEN` tokens, each inside the destination of a
/// planted copy that is still intact (a later copy planted over the same
/// text may have overwritten part of it, which only lowers the similarity).
pub fn memorized_queries(corpus: &Corpus, count: usize, rng: &mut Rng) -> Vec<(Text, Planted)> {
    let eligible: Vec<&Planted> = corpus
        .planted
        .iter()
        .filter(|p| (p.dst.end - p.dst.start + 1) as usize >= spec::QUERY_LEN)
        .collect();
    assert!(
        !eligible.is_empty(),
        "corpus has no planted copy of query length"
    );
    (0..count)
        .map(|_| {
            let p = eligible[rng.below(eligible.len())];
            let span = (p.dst.end - p.dst.start + 1) as usize;
            let start = p.dst.start as usize + rng.below(span - spec::QUERY_LEN + 1);
            let query = corpus.texts[p.dst.text as usize][start..start + spec::QUERY_LEN].to_vec();
            (query, *p)
        })
        .collect()
}

/// `count` windows of `QUERY_LEN` tokens of `other`, a corpus drawn from the
/// same Zipf model with another seed and no planted copies.
pub fn novel_queries(other: &Corpus, count: usize, rng: &mut Rng) -> Vec<Text> {
    (0..count)
        .map(|_| {
            let text = &other.texts[rng.below(other.texts.len())];
            let start = rng.below(text.len() - spec::QUERY_LEN + 1);
            text[start..start + spec::QUERY_LEN].to_vec()
        })
        .collect()
}

/// Interleaves one memorized query with `NOVEL_PER_MEMORIZED` novel ones.
pub fn mixed_queries(memorized: &[Text], novel: &[Text]) -> Vec<Text> {
    let mut out = Vec::new();
    let mut novel = novel.iter();
    for m in memorized {
        out.push(m.clone());
        for _ in 0..spec::NOVEL_PER_MEMORIZED {
            match novel.next() {
                Some(n) => out.push(n.clone()),
                None => return out,
            }
        }
    }
    out
}

/// Everything one run feeds the program, from one seed.
pub struct Load {
    /// The indexed corpus.
    pub corpus: Corpus,
    /// Texts appended by the write path (planted copies among themselves).
    pub ingest: Corpus,
    pub memorized: Vec<Text>,
    /// The planted copy each memorized query is a window of.
    pub memorized_from: Vec<Planted>,
    pub novel: Vec<Text>,
    pub mixed: Vec<Text>,
}

impl Load {
    pub fn generate(seed: u64, ingest_texts: usize) -> Load {
        // Distinct streams per role; the multipliers only separate them.
        let corpus = corpus(seed, spec::TEXTS, spec::DUP_RATE);
        let other = self::corpus(
            seed.wrapping_mul(0x9E37).wrapping_add(1_000_003),
            spec::TEXTS,
            0.0,
        );
        let ingest = self::corpus(
            seed.wrapping_mul(0x85EB).wrapping_add(2_000_003),
            ingest_texts.max(1),
            spec::DUP_RATE,
        );
        let mut rng = Rng::new(seed.wrapping_mul(0xC2B2).wrapping_add(3_000_017));
        let (memorized, memorized_from): (Vec<Text>, Vec<Planted>) =
            memorized_queries(&corpus, spec::MEMORIZED_QUERIES, &mut rng)
                .into_iter()
                .unzip();
        let novel = novel_queries(&other, spec::NOVEL_QUERIES, &mut rng);
        let mixed = mixed_queries(&memorized, &novel);
        Load {
            corpus,
            ingest,
            memorized,
            memorized_from,
            novel,
            mixed,
        }
    }
}

/// Due times of an open-loop stage, as offsets from its start: request `i`
/// is due at `i / rate` seconds, whatever happened to the ones before it.
pub fn schedule(rate: u32, seconds: f64) -> Vec<std::time::Duration> {
    let total = (rate as f64 * seconds).floor() as usize;
    (0..total)
        .map(|i| std::time::Duration::from_secs_f64(i as f64 / rate as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_load_other_seed_other_load() {
        let a = corpus(7, 60, 0.4);
        let b = corpus(7, 60, 0.4);
        let c = corpus(8, 60, 0.4);
        assert_eq!(a.texts, b.texts);
        assert_eq!(a.planted, b.planted);
        assert_ne!(a.texts, c.texts);
    }

    #[test]
    fn corpus_has_the_stated_shape() {
        let c = corpus(3, 400, spec::DUP_RATE);
        assert_eq!(c.texts.len(), 400);
        assert!(c
            .texts
            .iter()
            .all(|t| (spec::TEXT_LEN.0..=spec::TEXT_LEN.1).contains(&t.len())));
        assert!(c
            .texts
            .iter()
            .flatten()
            .all(|&t| (t as usize) < spec::VOCAB));
        // 0.4 copies per text, give or take sampling noise.
        assert!(
            (100..=220).contains(&c.planted.len()),
            "{}",
            c.planted.len()
        );
        // Zipf: the most frequent token is far more common than rank 99.
        let mut counts = vec![0u32; spec::VOCAB];
        c.texts
            .iter()
            .flatten()
            .for_each(|&t| counts[t as usize] += 1);
        assert!(counts[0] > 20 * counts[99].max(1));
    }

    #[test]
    fn planted_copies_resemble_their_source() {
        let c = corpus(11, 200, 1.0);
        let mut close = 0;
        for p in &c.planted {
            let src = &c.texts[p.src.text as usize][p.src.start as usize..=p.src.end as usize];
            let dst = &c.texts[p.dst.text as usize][p.dst.start as usize..=p.dst.end as usize];
            assert_eq!(src.len(), dst.len());
            assert!(p.src.text < p.dst.text);
            let same = src.iter().zip(dst).filter(|(a, b)| a == b).count();
            if same * 10 >= src.len() * 8 {
                close += 1;
            }
        }
        // A later copy may overwrite part of an earlier one; most survive.
        assert!(close * 10 >= c.planted.len() * 8);
    }

    #[test]
    fn queries_have_query_length_and_the_mix_is_one_to_three() {
        let c = corpus(5, 300, spec::DUP_RATE);
        let other = corpus(6, 300, 0.0);
        assert!(other.planted.is_empty());
        let mut rng = Rng::new(1);
        let (m, from): (Vec<Text>, Vec<Planted>) =
            memorized_queries(&c, 10, &mut rng).into_iter().unzip();
        let n = novel_queries(&other, 30, &mut rng);
        assert!(m.iter().chain(&n).all(|q| q.len() == spec::QUERY_LEN));
        let mixed = mixed_queries(&m, &n);
        assert_eq!(mixed.len(), 40);
        assert_eq!(mixed[0], m[0]);
        assert_eq!(mixed[4], m[1]);
        assert_eq!(mixed[1], n[0]);
        // Every memorized query is a window of the copy it names.
        for (q, p) in m.iter().zip(&from) {
            let dst = &c.texts[p.dst.text as usize][p.dst.start as usize..=p.dst.end as usize];
            assert!(dst.windows(q.len()).any(|w| w == q.as_slice()));
        }
    }

    #[test]
    fn schedule_is_evenly_spaced_from_zero() {
        let due = schedule(200, 1.5);
        assert_eq!(due.len(), 300);
        assert_eq!(due[0], std::time::Duration::ZERO);
        assert_eq!(due[200], std::time::Duration::from_secs(1));
    }
}
