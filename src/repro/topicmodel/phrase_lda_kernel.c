/* C kernels: collapsed Gibbs for PhraseLDA (paper Eq. 7) and Algorithm 2.
 *
 * Three entry points; the first two share one Eq. 7 loop:
 *
 *   phrase_lda_sweep    training: one full sweep over every clique
 *                       (phrase instance) of the flattened corpus, updating
 *                       the global topic-word, doc-topic and topic counts;
 *   phrase_lda_fold_in  inference: a chunk of whole sweeps over unseen
 *                       documents against the *frozen* topic-word and
 *                       topic factors (const here), mutating only the new
 *                       documents' counts and assignments;
 *   phrase_segment      segmentation: Algorithm 2 (bottom-up merging) over
 *                       every chunk of a flat chunk buffer, reading the
 *                       significance tables precomputed in Python (see the
 *                       comment above the function).
 *
 * The floating-point operations mirror, term for term and in the same
 * order, the readable NumPy references -- ReferencePhraseLDA._sweep in
 * repro/core/phrase_lda.py for training and the reference fold-in loop in
 * repro/core/infer.py -- so each Gibbs kernel produces bit-identical topic
 * assignments when driven with the same pre-drawn uniforms.
 *
 * LDA is the all-singleton special case: with every clique of size one the
 * inner product below collapses to the standard collapsed-Gibbs
 * conditional, which is why repro/topicmodel/lda.py fits LDA as
 * all-singleton PhraseLDA on this kernel, and why held-out perplexity
 * (repro/topicmodel/perplexity.py) folds in through phrase_lda_fold_in.
 *
 * Compiled on demand by repro.topicmodel.ckernel via the system C compiler;
 * no Python.h dependency, plain C99 + ctypes.
 *
 * Gibbs preconditions (enforced by the Python callers):
 *   - alpha[k] > 0 for all k and beta > 0.  Training relies on it: every
 *     clique posterior then has strictly positive mass, so the sweep skips
 *     the reference's degenerate uniform fallback.  Fold-in keeps the
 *     fallback, because a long clique against a large model can underflow
 *     the product to exactly 0;
 *   - every token id lies in [0, V), every assignment in [0, K), every
 *     clique_doc entry indexes a row of doc_topic, and offsets are
 *     non-decreasing;
 *   - uniforms holds one draw in [0, 1) per *non-empty* clique per sweep,
 *     consumed in clique order (the reference consumes exactly one
 *     rng.random() per non-empty clique and skips empty ones);
 *   - scratch has room for 2 * n_topics doubles.
 *
 * Prior-baked factors
 * -------------------
 * Both Gibbs kernels read the reference's factor expressions as doubles,
 * so the shared Eq. 7 loop (clique_weights) does no int->double conversion
 * and no prior add:
 *
 *   wfac[w*K + k] == beta + (double)topic_word[w*K + k]       (V x K, caller)
 *   tfac[k]       == beta_sum + (double)topic_totals[k]       (K, caller)
 *   df[k]         == alpha[k] + (double)doc_topic[d*K + k]    (K, scratch)
 *
 * The caller establishes the first two on entry (training: after every
 * hyper-parameter update too; fold-in: once per model, as they are
 * frozen); df is rebuilt from the counts whenever clique_doc changes (and
 * at the first clique of a call), so there is no D x K factor array.  Each
 * factor is recomputed with exactly that expression the moment its count
 * changes, so it always equals what the reference computes from the
 * counts, bit for bit.
 *
 * With the factors, the reference's j = 0 step
 *   w = 1.0;  w *= df + 0.0;  w *= wf;  w /= tfac + 0.0
 * is (df * wf) / tfac exactly: 1.0 * x == x and x + 0.0 == x for x > 0.
 * That is the whole weight of a singleton clique, and the starting weight
 * of a longer one.
 *
 * Keeps and moves (training)
 * --------------------------
 * The reference removes clique g from the counts, draws, and adds it back
 * under the drawn topic.  Removing it changes only lane k_old of the Eq. 7
 * weights, so the sweep draws before it changes any count: clique_weights
 * runs on the counts as they stand, and lane k_old is then recomputed as a
 * scalar from the removed values, in clique_weights' operation order,
 *
 *   df_old = alpha[k_old] + (double)(dc[k_old] - size)
 *   tf_old = beta_sum + (double)(topic_totals[k_old] - size)
 *   wf_j   = beta + (double)(topic_word[w_j*K + k_old] - m_j)
 *
 * where m_j counts the occurrences of w_j in the clique (a repeated word
 * loses one count per occurrence).  These are the very doubles the
 * reference's factor expressions give after the removal, so the weights,
 * and so the draw, are bit-identical.  On a keep (k_new == k_old, most
 * draws once the chain has burnt in) remove-then-add would restore every
 * integer count, and so every factor re-derived from it, bit for bit: the
 * sweep writes nothing.  Only a move writes, the k_old and k_new cells of
 * each touched count and factor.  With no stores behind a keep, the next
 * clique's factor loads never wait on this clique's draw.
 *
 * The draw counts k_new = #{k < K-1 : cum[k] < u * total}.  With positive
 * priors every weight is >= 0 and NaN-free, so cum is nondecreasing and
 * the indices with cum[k] < target form a prefix: the count equals the
 * leftmost index with cum[k] >= target (capped at K-1) that numpy's
 * searchsorted(side="left") and the reference return, without a
 * data-dependent branch.
 */

#include <math.h>
#include <stdint.h>

/* Eq. 7 weights of the clique tokens[0 .. size) (size >= 1) into
 * weights[0 .. K), in the reference's per-element operation order:
 *   w *= df_k + j
 *   w *= wfac_wk
 *   w /= tfac_k + j
 * j = 0 reduces exactly to (df_k * wfac_wk) / tfac_k (see the header);
 * every later token is one fused K-loop. */
static inline void clique_weights(const int32_t *tokens, int64_t size,
                                  int64_t K, const double *df,
                                  const double *wfac, const double *tfac,
                                  double *weights)
{
    const double *wf = wfac + (int64_t)tokens[0] * K;
    for (int64_t k = 0; k < K; k++)
        weights[k] = (df[k] * wf[k]) / tfac[k];
    for (int64_t j = 1; j < size; j++) {
        const double jd = (double)j;
        wf = wfac + (int64_t)tokens[j] * K;
        for (int64_t k = 0; k < K; k++) {
            double w = weights[k];
            w *= df[k] + jd;
            w *= wf[k];
            w /= tfac[k] + jd;
            weights[k] = w;
        }
    }
}

void phrase_lda_sweep(const int32_t *tokens,      /* flat token ids            */
                      const int64_t *offsets,     /* n_cliques+1 token offsets */
                      const int32_t *clique_doc,  /* doc id per clique         */
                      int64_t n_cliques,
                      int64_t n_topics,
                      const double *alpha,        /* K-vector document prior   */
                      double beta,
                      double beta_sum,            /* beta * vocabulary size    */
                      int64_t *topic_word,        /* V x K row-major counts    */
                      int64_t *doc_topic,         /* D x K row-major counts    */
                      int64_t *topic_totals,      /* K counts                  */
                      double *wfac,               /* V x K: beta + topic_word  */
                      double *tfac,               /* K: beta_sum + topic_totals*/
                      int64_t *assign,            /* clique topic per clique   */
                      const double *uniforms,     /* one U[0,1) per clique     */
                      double *scratch)            /* 2K doubles                */
{
    const int64_t K = n_topics;
    double *weights = scratch;
    double *df = scratch + K;
    int64_t current_doc = -1;
    int64_t next_uniform = 0;

    for (int64_t g = 0; g < n_cliques; g++) {
        const int64_t t0 = offsets[g];
        const int64_t size = offsets[g + 1] - t0;
        if (size == 0)
            continue;
        const int32_t *clique = tokens + t0;
        const int64_t d = clique_doc[g];
        int64_t *dc = doc_topic + d * K;
        if (d != current_doc) {
            for (int64_t k = 0; k < K; k++)
                df[k] = alpha[k] + (double)dc[k];
            current_doc = d;
        }
        const int64_t k_old = assign[g];

        /* Eq. 7 on the counts as they stand: every lane but k_old already
         * holds its Z-without-C_{d,g} weight. */
        clique_weights(clique, size, K, df, wfac, tfac, weights);

        /* Lane k_old with the clique removed, from the removed counts and
         * in clique_weights' operation order: a word occurring m times in
         * the clique loses m from its count. */
        const double df_old = alpha[k_old] + (double)(dc[k_old] - size);
        const double tf_old = beta_sum + (double)(topic_totals[k_old] - size);
        double w_old = 1.0;
        for (int64_t j = 0; j < size; j++) {
            int64_t m = 0;
            for (int64_t i = 0; i < size; i++)
                m += clique[i] == clique[j];
            const double wf = beta + (double)(
                topic_word[(int64_t)clique[j] * K + k_old] - m);
            if (j == 0) {
                w_old = (df_old * wf) / tf_old;
            } else {
                const double jd = (double)j;
                w_old *= df_old + jd;
                w_old *= wf;
                w_old /= tf_old + jd;
            }
        }
        weights[k_old] = w_old;

        /* Inverse-CDF draw: in-place cumulative sum, then the branchless
         * count of cum[k] < u * total over k < K-1 (== the leftmost index
         * with cum[k] >= target, numpy searchsorted side="left"). */
        for (int64_t k = 1; k < K; k++)
            weights[k] += weights[k - 1];
        const double target = uniforms[next_uniform++] * weights[K - 1];
        int64_t k_new = 0;
        for (int64_t k = 0; k < K - 1; k++)
            k_new += weights[k] < target;

        /* A keep writes nothing: remove-then-add would restore every
         * count, and so every factor re-derived from it, bit for bit. */
        if (k_new == k_old)
            continue;
        assign[g] = k_new;
        for (int64_t t = 0; t < size; t++) {
            const int64_t row = (int64_t)clique[t] * K;
            topic_word[row + k_old] -= 1;
            wfac[row + k_old] = beta + (double)topic_word[row + k_old];
            topic_word[row + k_new] += 1;
            wfac[row + k_new] = beta + (double)topic_word[row + k_new];
        }
        dc[k_old] -= size;
        df[k_old] = alpha[k_old] + (double)dc[k_old];
        dc[k_new] += size;
        df[k_new] = alpha[k_new] + (double)dc[k_new];
        topic_totals[k_old] -= size;
        tfac[k_old] = beta_sum + (double)topic_totals[k_old];
        topic_totals[k_new] += size;
        tfac[k_new] = beta_sum + (double)topic_totals[k_new];
    }
}

void phrase_lda_fold_in(const int32_t *tokens,      /* flat token ids            */
                        const int64_t *offsets,     /* n_cliques+1 token offsets */
                        const int32_t *clique_doc,  /* doc id per clique         */
                        int64_t n_cliques,
                        int64_t n_topics,
                        const double *alpha,        /* K-vector document prior   */
                        const double *wfac,         /* V x K: beta + topic_word  */
                        const double *tfac,         /* K: beta_sum + topic_totals*/
                        int64_t *doc_topic,         /* D x K new-document counts */
                        int64_t *assign,            /* clique topic per clique   */
                        int64_t n_sweeps,
                        const double *uniforms,     /* n_sweeps x non-empty      */
                        double *scratch)            /* 2K doubles                */
{
    const int64_t K = n_topics;
    double *weights = scratch;
    double *df = scratch + K;
    int64_t current_doc = -1;
    int64_t next_uniform = 0;

    for (int64_t sweep = 0; sweep < n_sweeps; sweep++) {
        for (int64_t g = 0; g < n_cliques; g++) {
            const int64_t t0 = offsets[g];
            const int64_t size = offsets[g + 1] - t0;
            if (size == 0)
                continue;
            const int64_t d = clique_doc[g];
            int64_t *dc = doc_topic + d * K;
            if (d != current_doc) {
                for (int64_t k = 0; k < K; k++)
                    df[k] = alpha[k] + (double)dc[k];
                current_doc = d;
            }
            const int64_t k_old = assign[g];
            dc[k_old] -= size;
            df[k_old] = alpha[k_old] + (double)dc[k_old];

            /* Eq. 7 with the word and topic-total factors frozen. */
            clique_weights(tokens + t0, size, K, df, wfac, tfac, weights);

            for (int64_t k = 1; k < K; k++)
                weights[k] += weights[k - 1];
            const double u = uniforms[next_uniform++];
            const double total = weights[K - 1];
            int64_t k_new;
            if (total > 0.0) {
                const double target = u * total;
                k_new = 0;
                while (k_new < K - 1 && weights[k_new] < target)
                    k_new++;
            } else {
                /* Underflowed (or NaN) posterior: the reference's uniform
                 * fallback from the same consumed uniform. */
                k_new = (int64_t)(u * (double)K);
                if (k_new > K - 1)
                    k_new = K - 1;
            }
            assign[g] = k_new;
            dc[k_new] += size;
            df[k_new] = alpha[k_new] + (double)dc[k_new];
        }
    }
}

/* Significance and merged id of the pair (left, right) of phrase ids: a
 * lower-bound binary search of left * n_phrases + right in the sorted
 * pair keys.  A rare constituent (id -1) or a key absent from the table
 * is an impossible merge: -inf, merged id -1. */
static double pair_score(int64_t left, int64_t right,
                          const int64_t *pair_keys, const double *pair_sigs,
                          const int64_t *pair_merged, int64_t n_pairs,
                          int64_t n_phrases, int64_t *merged)
{
    *merged = -1;
    if (left < 0 || right < 0)
        return -INFINITY;
    const int64_t key = left * n_phrases + right;
    int64_t lo = 0, hi = n_pairs;
    while (lo < hi) {
        const int64_t mid = lo + (hi - lo) / 2;
        if (pair_keys[mid] < key)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo == n_pairs || pair_keys[lo] != key)
        return -INFINITY;
    *merged = pair_merged[lo];
    return pair_sigs[lo];
}

/* Algorithm 2 (bottom-up agglomerative merging), one chunk at a time.
 *
 * The readable reference is PhraseConstructor.construct in
 * repro/core/phrase_construction.py: a heap of adjacent pairs keyed by
 * significance, ties broken on the push sequence number.  Here each chunk
 * keeps the pair starting at every live span head in flat arrays and pops
 * by a linear scan for the highest significance, lowest sequence number --
 * the same order, since every decision compares the same stored doubles
 * (the pair table IndexedSignificanceScorer builds with the reference's
 * expression).  Sequence numbers follow the reference's pushes: seeds take
 * their position, each merge re-scores the left-neighbour pair and then its
 * own pair, and a merge the max_words cap blocks drops its pair for good
 * without consuming one.  A pair below the threshold is stored dead: the
 * reference would pop it only as its terminating pop.  Chunks are short
 * (punctuation-delimited), so the O(n) scan per merge is cheap.
 *
 * Preconditions (enforced by repro.core.segmentation): every token id is
 * >= 0; ids >= vocab_bound read word_id[vocab_bound] (-1, a rare word).
 * out needs 2 * n_pos + n_chunks + 2 int64 results plus 6 eight-byte
 * scratch slots (5 int64, 1 double) per token of the longest chunk; the
 * kernel checks that against out_size before it writes anything.
 */
int64_t phrase_segment(const int32_t *tokens,       /* flat token ids, >= 0      */
                       const int64_t *offsets,      /* n_chunks+1 token offsets  */
                       int64_t n_chunks,
                       const int64_t *word_id,      /* vocab_bound+1 unigram ids */
                       int64_t vocab_bound,
                       const int64_t *pair_keys,    /* sorted merge keys         */
                       const double *pair_sigs,     /* significance per key      */
                       const int64_t *pair_merged,  /* merged phrase id per key  */
                       int64_t n_pairs,
                       int64_t n_phrases,
                       double threshold,
                       int64_t max_words,           /* phrase cap (no cap: huge) */
                       int64_t *out,                /* results, then scratch     */
                       int64_t out_size)            /* int64 slots in out        */
{
    /* out holds, in order: the clique offsets (n_pos + 1 slots), the
     * clique keys (n_pos), each chunk's first clique (n_chunks + 1), then
     * the per-chunk scratch.  The cascade works on length and key per
     * token position in the first two regions: length is the span length
     * at each span head and 0 at every other position, key the span's
     * phrase key at each head -- its id in the phrase table, or n_phrases
     * + token id for a unigram the table lacks (a rare word).  Every
     * multi-word span is a table phrase, so equal keys mean equal spans.
     * A last pass compacts the heads into the partition.  Returns the
     * clique count, or minus the slot count out needs when out_size is
     * smaller (nothing is written then). */
    const int64_t n_pos = offsets[n_chunks];
    int64_t longest = 0;
    for (int64_t c = 0; c < n_chunks; c++)
        if (offsets[c + 1] - offsets[c] > longest)
            longest = offsets[c + 1] - offsets[c];
    const int64_t needed = 2 * n_pos + n_chunks + 2 + 6 * longest;
    if (needed > out_size)
        return -needed;
    int64_t *length = out, *key = out + n_pos + 1;
    int64_t *chunk_first = key + n_pos;
    int64_t *scratch = chunk_first + n_chunks + 1;

    for (int64_t c = 0; c < n_chunks; c++) {
        const int64_t s = offsets[c];
        const int64_t n = offsets[c + 1] - s;
        /* Local (0-based) linked list over the chunk's span heads. */
        int64_t *pid = scratch, *prv = pid + n, *nxt = prv + n,
                *seq = nxt + n, *pmerged = seq + n;
        double *sig = (double *)(pmerged + n);
        for (int64_t i = 0; i < n; i++) {
            const int64_t w = tokens[s + i];
            pid[i] = word_id[w < vocab_bound ? w : vocab_bound];
            key[s + i] = pid[i] >= 0 ? pid[i] : n_phrases + w;
            length[s + i] = 1;
            prv[i] = i - 1;
            nxt[i] = i + 1 < n ? i + 1 : -1;
        }
        /* A cap below two words blocks every merge outright. */
        if (n < 2 || max_words < 2)
            continue;

        /* Seed pass: one pair per adjacent token, seq = position.  A pair
         * below the threshold never pops (the chunk terminates first), so
         * it is stored as dead: seq = -1. */
        for (int64_t i = 0; i + 1 < n; i++) {
            sig[i] = pair_score(pid[i], pid[i + 1], pair_keys, pair_sigs,
                                 pair_merged, n_pairs, n_phrases, &pmerged[i]);
            seq[i] = sig[i] >= threshold ? i : -1;
        }
        seq[n - 1] = -1;
        int64_t next_seq = n - 1;

        for (;;) {
            /* Pop the live pair of highest significance, lowest seq. */
            int64_t best = -1;
            for (int64_t i = 0; i >= 0; i = nxt[i]) {
                if (seq[i] < 0)
                    continue;
                if (best < 0 || sig[i] > sig[best]
                        || (sig[i] == sig[best] && seq[i] < seq[best]))
                    best = i;
            }
            if (best < 0)
                break;
            const int64_t right = nxt[best];
            const int64_t merged_length = length[s + best] + length[s + right];
            if (merged_length > max_words) {
                /* Cap-blocked: dropped for good, no seq consumed. */
                seq[best] = -1;
                continue;
            }

            pid[best] = pmerged[best];
            key[s + best] = pid[best];
            length[s + best] = merged_length;
            length[s + right] = 0;
            const int64_t follower = nxt[right];
            nxt[best] = follower;
            if (follower >= 0)
                prv[follower] = best;
            seq[right] = -1;
            seq[best] = -1;

            /* Re-score the neighbour pairs in the reference's push order:
             * left neighbour first, own pair second. */
            const int64_t left = prv[best];
            if (left >= 0) {
                sig[left] = pair_score(pid[left], pid[best], pair_keys,
                                        pair_sigs, pair_merged, n_pairs,
                                        n_phrases, &pmerged[left]);
                seq[left] = sig[left] >= threshold ? next_seq : -1;
                next_seq++;
            }
            if (follower >= 0) {
                sig[best] = pair_score(pid[best], pid[follower], pair_keys,
                                        pair_sigs, pair_merged, n_pairs,
                                        n_phrases, &pmerged[best]);
                seq[best] = sig[best] >= threshold ? next_seq : -1;
                next_seq++;
            }
        }
    }

    /* Compact the span heads: clique g starts at position length[g] and
     * has key key[g]; length[n_cliques] closes the last one.  Every write
     * lands at or before the position just read, so the pass runs in
     * place. */
    int64_t n_cliques = 0;
    for (int64_t c = 0; c < n_chunks; c++) {
        chunk_first[c] = n_cliques;
        for (int64_t p = offsets[c]; p < offsets[c + 1]; p++) {
            if (length[p] == 0)
                continue;
            key[n_cliques] = key[p];
            length[n_cliques] = p;
            n_cliques++;
        }
    }
    chunk_first[n_chunks] = n_cliques;
    length[n_cliques] = n_pos;
    return n_cliques;
}
