package repro.core

import scala.collection.mutable.ArrayBuffer

/** Incremental MUP-dominance index (paper Appendix B).
  *
  * Maintains, for every attribute, one growable bit vector per value plus one
  * for `X`, each over the MUPs discovered so far. Supports the two checks
  * DEEPDIVER issues per node (Definition 9):
  *
  *  - `dominatesSome(P)`: ∃ MUP m strictly dominated by P — AND the vectors of
  *    P's deterministic values (X elements of P impose nothing).
  *  - `dominatedBySome(P)`: ∃ MUP m strictly dominating P — AND over all
  *    attributes of (vector for X) for P's X elements and (vector for value ∨
  *    vector for X) for P's deterministic elements.
  *
  * Strictness (a pattern neither dominates nor is dominated by itself) is
  * enforced by excluding exact-equal MUPs from the raw generalizes-check.
  */
final class MupDominanceIndex(cards: IndexedSeq[Int]) {
  private val dim = cards.length

  /** vec(i)(v) for v in 0..c_i-1; vec(i)(c_i) is the `X` slot. Every vector,
    * and the scratch `acc` the checks AND into, is `acc.length` words long;
    * [[add]] doubles them all together when the MUPs outgrow them.
    */
  private val vec: Array[Array[Array[Long]]] =
    Array.tabulate(dim)(i => Array.fill(cards(i) + 1)(new Array[Long](1)))
  private var acc = new Array[Long](1)

  private val mupList = ArrayBuffer.empty[Pattern]
  /** levels(idx) = ℓ of the idx-th MUP; `acc.length * 64` long. */
  private var levels = new Array[Int](64)

  /** Number of MUPs indexed. */
  def size: Int = mupList.size

  /** The indexed MUPs in insertion order. */
  def mups: Seq[Pattern] = mupList.toSeq

  /** Add a newly discovered MUP: set its bit in the matching value/X vector of
    * every attribute, leave it clear everywhere else.
    */
  def add(p: Pattern): Unit = {
    val idx  = mupList.size
    val word = idx >>> 6
    if (word == acc.length) {
      acc = new Array[Long](2 * word)
      levels = java.util.Arrays.copyOf(levels, 64 * acc.length)
      for (bufs <- vec; s <- bufs.indices) bufs(s) = java.util.Arrays.copyOf(bufs(s), acc.length)
    }
    mupList += p
    levels(idx) = p.level
    var i = 0
    while (i < dim) {
      val slot = if (p.elems(i) == Pattern.X) cards(i) else p.elems(i)
      vec(i)(slot)(word) |= 1L << (idx & 63)
      i += 1
    }
  }

  /** Set one bit per indexed MUP in the first n = ⌈size/64⌉ words of `acc`; returns n. */
  private def resetAcc(): Int = {
    val n = (mupList.size + 63) >>> 6
    java.util.Arrays.fill(acc, 0, n, -1L)
    val extra = (n << 6) - mupList.size
    if (extra > 0) acc(n - 1) &= -1L >>> extra
    n
  }

  /** True iff some indexed MUP is *strictly* dominated by `p`
    * (i.e. p generalizes it and is not equal to it).
    */
  def dominatesSome(p: Pattern): Boolean = dominatesSome(p.elems.toArray)

  /** [[dominatesSome]] for the pattern with elements `elems` (X as [[Pattern.X]]). */
  def dominatesSome(elems: Array[Int]): Boolean = {
    val n = resetAcc()
    var level = 0
    var i = 0
    while (i < dim) {
      val e = elems(i)
      if (e != Pattern.X) {
        // a dominated m must have exactly value e at i (an X there would make
        // m strictly more general at i, so p could not generalize it)
        if (!andOne(vec(i)(e), n)) return false
        level += 1
      }
      i += 1
    }
    // acc marks MUPs generalized by p; exclude p itself (equal pattern).
    anySetOffLevel(level, n)
  }

  /** True iff some indexed MUP *strictly* dominates `p`. */
  def dominatedBySome(p: Pattern): Boolean = dominatedBySome(p.elems.toArray)

  /** [[dominatedBySome]] for the pattern with elements `elems` (X as [[Pattern.X]]). */
  def dominatedBySome(elems: Array[Int]): Boolean = {
    val n = resetAcc()
    var level = 0
    var i = 0
    while (i < dim) {
      val e = elems(i)
      if (e == Pattern.X) {
        // a dominating m must have X at i
        if (!andOne(vec(i)(cards(i)), n)) return false
      } else {
        // m may have X or the same value at i
        if (!andOr(vec(i)(e), vec(i)(cards(i)), n)) return false
        level += 1
      }
      i += 1
    }
    anySetOffLevel(level, n)
  }

  /** acc &= a over the first n words; returns whether any bit survives. */
  private def andOne(a: Array[Long], n: Int): Boolean = {
    var any = 0L
    var w = 0
    while (w < n) {
      acc(w) &= a(w)
      any |= acc(w)
      w += 1
    }
    any != 0L
  }

  /** acc &= (a | b) over the first n words; returns whether any bit survives. */
  private def andOr(a: Array[Long], b: Array[Long], n: Int): Boolean = {
    var any = 0L
    var w = 0
    while (w < n) {
      acc(w) &= (a(w) | b(w))
      any |= acc(w)
      w += 1
    }
    any != 0L
  }

  /** Any bit set in the first n words of acc whose MUP is not at `level`?
    * Every marked MUP generalizes or specializes p, so it equals p exactly
    * when it has p's level.
    */
  private def anySetOffLevel(level: Int, n: Int): Boolean = {
    var w = 0
    while (w < n) {
      var word = acc(w)
      while (word != 0L) {
        val t = java.lang.Long.numberOfTrailingZeros(word)
        if (levels((w << 6) + t) != level) return true
        word &= word - 1
      }
      w += 1
    }
    false
  }
}
