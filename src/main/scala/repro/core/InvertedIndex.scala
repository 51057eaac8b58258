package repro.core

/** The inverted-index coverage oracle of Appendix A.
  *
  * For every (attribute `i`, value `v`) a bit vector `bits(i)(v)` marks the
  * distinct value combinations whose i-th value is `v`. `cov(P)` ANDs the
  * vectors of P's deterministic elements and takes the weighted popcount
  * against the per-combo tuple counts.
  *
  * Storage is O(c·d·K/64) longs for K distinct combos; each `cov` call is
  * O(ℓ(P) · K/64 + |matches|). The ANDs go into one scratch buffer owned by
  * the index, so an index must not be used from two threads at once.
  */
final class InvertedIndex(val data: CompressedData) {
  private val dim   = data.dim
  private val k     = data.combos.length

  /** Length in words of every match vector. */
  val words: Int = (k + 63) >>> 6

  /** bits(i)(v) = bit vector (as Long words) over combo indices. */
  private val bits: Array[Array[Array[Long]]] =
    Array.tabulate(dim)(i => Array.ofDim[Long](data.cards(i), words))

  {
    var idx = 0
    while (idx < k) {
      val row = data.combos(idx)
      var i = 0
      while (i < dim) {
        bits(i)(row(i))(idx >>> 6) |= 1L << (idx & 63)
        i += 1
      }
      idx += 1
    }
  }

  private val scratch = new Array[Long](words)

  /** Count of `cov`/`covers` invocations — benches report this as work done. */
  var covCalls: Long = 0L

  /** Coverage of pattern `p` (Definition 2) via AND + weighted popcount. */
  def cov(p: Pattern): Long = {
    covCalls += 1
    weight(matching(p.elems), Long.MaxValue)
  }

  /** Is the pattern with elements `elems` covered, cov >= tau? */
  def covers(elems: Array[Int], tau: Long): Boolean = {
    covCalls += 1
    reaches(matching(elems(_)), tau)
  }

  /** dst = src AND bits(i)(v), where a null `src` matches every combo; returns dst. */
  def narrow(dst: Array[Long], src: Array[Long], i: Int, v: Int): Array[Long] = {
    val vec = bits(i)(v)
    if (src == null) System.arraycopy(vec, 0, dst, 0, words)
    else {
      var w = 0
      while (w < words) { dst(w) = src(w) & vec(w); w += 1 }
    }
    dst
  }

  /** Do the combos marked in `vec` (null: every combo) hold at least `tau` tuples? */
  def reaches(vec: Array[Long], tau: Long): Boolean = weight(vec, tau) >= tau

  /** Match vector of the deterministic elements `elem(0 until dim)`: null for
    * the root, the attribute's own (read-only) vector for one element, else
    * the AND of them in `scratch`.
    */
  private def matching(elem: Int => Int): Array[Long] = {
    var first: Array[Long] = null
    var acc:   Array[Long] = null
    var i = 0
    while (i < dim) {
      val e = elem(i)
      if (e != Pattern.X) {
        val vec = bits(i)(e)
        if (first == null) first = vec
        else {
          if (acc == null) { acc = scratch; System.arraycopy(first, 0, acc, 0, words) }
          var w = 0
          var nonzero = false
          while (w < words) {
            acc(w) &= vec(w)
            if (acc(w) != 0L) nonzero = true
            w += 1
          }
          if (!nonzero) return acc
        }
      }
      i += 1
    }
    if (acc == null) first else acc
  }

  /** Weighted popcount of `vec` (null: every combo): the tuple count of the
    * marked combos, stopping as soon as it reaches `limit`.
    */
  private def weight(vec: Array[Long], limit: Long): Long = {
    if (vec == null) return data.total
    var sum = 0L
    var w = 0
    while (w < words && sum < limit) {
      var word = vec(w)
      while (word != 0L) {
        val t = java.lang.Long.numberOfTrailingZeros(word)
        sum += data.counts((w << 6) + t)
        word &= word - 1
      }
      w += 1
    }
    sum
  }
}
