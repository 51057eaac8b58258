package repro.core.mup

import repro.core.{CompressedData, InvertedIndex, MupDominanceIndex, Pattern, PatternCodes}

/** DEEPDIVER (paper §III-E, Algorithm 3): DFS that dives down the Rule-1 tree
  * until it falls into an uncovered region, climbs through uncovered parents
  * to a maximal uncovered pattern, and uses the discovered MUPs to prune the
  * remaining search both above (nodes dominating a MUP are covered — skip the
  * coverage computation, still expand) and below (nodes dominated by a MUP
  * are uncovered and non-maximal — prune the whole subtree). MUP dominance is
  * checked via the incremental inverted indices of Appendix B
  * ([[MupDominanceIndex]]).
  *
  * The search edits one pattern array in place and names each pattern by its
  * [[PatternCodes]] code. Children are visited by descending attribute, then
  * descending value. Each node on the current Rule-1 path keeps its match
  * vector, so a child's vector is its parent's ANDed with one attribute
  * vector, and the coverage test stops counting once it reaches τ. Every
  * coverage result goes into one exact `code → covered` memo scoped to the
  * call: climbs from neighbouring uncovered nodes share most of their parents,
  * and those parents are often nodes the dive has already tested.
  *
  * A node is strictly dominated by a MUP only if one of its parents is
  * uncovered, so the `dominatedBySome` check is skipped when every parent is
  * known to be covered (memoized as covered, or expanded because it dominates
  * a MUP). In this visit order every parent is reached before its children.
  *
  * With `maxLevel < d` the dive stops expanding at `maxLevel`, returning
  * exactly the MUPs with ℓ(P) <= maxLevel (paper Fig 16).
  */
object DeepDiver extends MupAlgorithm {
  val name = "DeepDiver"

  def findMups(data: CompressedData, tau: Long, maxLevel: Int = Int.MaxValue): MupResult = {
    val search = new Search(data, new PatternCodes(data.cards), tau, math.min(data.dim, maxLevel))
    search.visit(0, 0L, -1)
    MupResult(search.dom.mups.toSet, search.visited, search.covCalls)
  }

  // Flags kept per pattern code.
  private final val Covered   = 1 // coverage computed, >= τ
  private final val Uncovered = 2 // coverage computed, < τ
  private final val Expanded  = 4 // expanded because it dominates a MUP, hence covered
  private final val Found     = 8 // a MUP already in the dominance index

  private final class Search(data: CompressedData, codes: PatternCodes, tau: Long, cap: Int) {
    private val index = new InvertedIndex(data)
    private val cards = data.cards
    private val d     = data.dim
    val dom           = new MupDominanceIndex(cards)
    var visited       = 0L
    var covCalls      = 0L

    /** The node being visited, edited in place. */
    private val e     = Array.fill(d)(Pattern.X)
    private val flags = new LongFlags
    /** path(l): match vector of the level-l node on the current Rule-1 path. */
    private val path  = Array.fill(math.max(cap, 0) + 1)(new Array[Long](index.words))
    /** Elements a climb X-ed, with their values, to restore afterwards. */
    private val undoAt  = new Array[Int](d)
    private val undoVal = new Array[Int](d)

    /** Visit the node in `e`, with code `code` and level `lvl`, whose right-most
      * deterministic element is `last` (-1 at the root).
      */
    def visit(lvl: Int, code: Long, last: Int): Unit = {
      visited += 1
      // The node and its whole Rule-1 subtree are uncovered and dominated: prune.
      if (!parentsCovered(code) && dom.dominatedBySome(e)) return
      val s = flags(code)
      var narrowed = false
      val expand =
        if (dom.dominatesSome(e)) {
          // Ancestors of MUPs are covered (a MUP's parents are covered and
          // coverage is monotone): expand without computing coverage.
          flags(code) = s | Expanded
          true
        } else if (known(s)) (s & Covered) != 0
        else {
          narrowed = true
          record(code, s, index.reaches(matchVector(lvl, last), tau))
        }
      if (!expand) climb(code)
      else if (lvl < cap) {
        if (!narrowed) matchVector(lvl, last) // the children narrow from path(lvl)
        var i = d - 1
        while (i > last) {
          var v = cards(i) - 1
          while (v >= 0) {
            e(i) = v
            visit(lvl + 1, code + codes.step(i, v), i)
            v -= 1
          }
          e(i) = Pattern.X
          i -= 1
        }
      }
    }

    /** Are all parents of the node in `e` known to be covered? */
    private def parentsCovered(code: Long): Boolean = {
      var i = 0
      while (i < d) {
        val v = e(i)
        if (v != Pattern.X && (flags(code - codes.step(i, v)) & (Covered | Expanded)) == 0) return false
        i += 1
      }
      true
    }

    /** Match vector of the node in `e`, narrowed from its Rule-1 parent's on
      * the path (null at the root: every combo matches).
      */
    private def matchVector(lvl: Int, last: Int): Array[Long] =
      if (lvl == 0) null
      else index.narrow(path(lvl), if (lvl == 1) null else path(lvl - 1), last, e(last))

    private def known(s: Int): Boolean = (s & (Covered | Uncovered)) != 0

    /** Memoize one coverage computation's outcome and count it. */
    private def record(code: Long, s: Int, covered: Boolean): Boolean = {
      covCalls += 1
      flags(code) = s | (if (covered) Covered else Uncovered)
      covered
    }

    /** From the uncovered node in `e`, climb through uncovered parents (the
      * first one in attribute order at each step) to a maximal one, index it
      * as a MUP unless already found, and restore `e`.
      */
    private def climb(from: Long): Unit = {
      var code = from
      var n = 0
      var i = 0
      while (i < d) {
        val v = e(i)
        if (v == Pattern.X) i += 1
        else {
          val up = code - codes.step(i, v)
          e(i) = Pattern.X
          val s = flags(up)
          if (if (known(s)) (s & Covered) != 0 else record(up, s, index.covers(e, tau))) {
            e(i) = v
            i += 1
          } else {
            undoAt(n) = i; undoVal(n) = v; n += 1
            code = up
            i = 0
          }
        }
      }
      val s = flags(code)
      if ((s & Found) == 0) {
        flags(code) = s | Found
        dom.add(Pattern(e.toVector))
      }
      while (n > 0) { n -= 1; e(undoAt(n)) = undoVal(n) }
    }
  }

  /** Open-addressing map from pattern codes (non-negative) to flag bits; 0 when absent. */
  private final class LongFlags {
    private var keys  = Array.fill(1 << 10)(-1L)
    private var vals  = new Array[Byte](1 << 10)
    private var shift = 64 - 10
    private var size  = 0

    private def slot(k: Long): Int = {
      val mask = keys.length - 1
      var h = ((k * 0x9E3779B97F4A7C15L) >>> shift).toInt
      while (keys(h) != -1L && keys(h) != k) h = (h + 1) & mask
      h
    }

    def apply(k: Long): Int = {
      val h = slot(k)
      if (keys(h) == k) vals(h) else 0
    }

    def update(k: Long, f: Int): Unit = {
      val h = slot(k)
      if (keys(h) != k) { keys(h) = k; size += 1 }
      vals(h) = f.toByte
      if (2 * size > keys.length) grow()
    }

    private def grow(): Unit = {
      val (oldKeys, oldVals) = (keys, vals)
      keys = Array.fill(2 * oldKeys.length)(-1L)
      vals = new Array[Byte](keys.length)
      shift -= 1
      var j = 0
      while (j < oldKeys.length) {
        if (oldKeys(j) != -1L) { val h = slot(oldKeys(j)); keys(h) = oldKeys(j); vals(h) = oldVals(j) }
        j += 1
      }
    }
  }
}
