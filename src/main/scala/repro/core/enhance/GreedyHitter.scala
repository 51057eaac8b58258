package repro.core.enhance

import repro.core.Pattern

/** The efficient greedy hitting-set of paper §IV-B (Algorithms 4 and 5).
  *
  * GREEDY repeatedly asks `hit-count` for the value combination hitting the
  * most still-unhit patterns, clears those patterns from the filter, and
  * stops when every pattern is hit. `hit-count` walks the value-combination
  * tree (Fig 10) depth-first, carrying the AND of the inverted indices along
  * the path as a bit-vector filter; children are visited in descending order
  * of their remaining-hit upper bound (ties in ascending value order) and a
  * branch is pruned as soon as that bound cannot beat the best complete
  * combination found so far.
  *
  * The walk allocates nothing per node: it has one open node per depth, so
  * each depth owns a filter buffer per value plus count and order arrays,
  * allocated once per index. Once at most half of the indexed patterns are
  * unhit, GREEDY re-indexes just those, so later ANDs are shorter; a pick
  * depends on hit counts, never on pattern ids, so no pick changes.
  */
object GreedyHitter {

  /** Result: combinations to collect plus work counters for the benches. */
  final case class Result(combos: Vector[Vector[Int]], nodesExplored: Long)

  /** Run GREEDY over the patterns to hit. Returns the chosen combinations in
    * selection order. Patterns must be non-empty-hittable (every pattern is
    * hit by at least one combination — always true for patterns over the same
    * attribute domain).
    */
  def run(patterns: IndexedSeq[Pattern], cards: IndexedSeq[Int]): Result = {
    if (patterns.isEmpty) return Result(Vector.empty, 0L)
    var idx    = new PatternHitIndex(patterns, cards)
    var filter = idx.fullFilter
    var search = new HitCountSearch(idx, cards)
    val out    = Vector.newBuilder[Vector[Int]]
    var explored = 0L

    while (idx.popcount(filter) > 0) {
      if (2 * idx.popcount(filter) <= idx.m) {
        val live = idx.patterns.indices.filter(j => (filter(j >>> 6) >>> (j & 63) & 1L) != 0L)
        idx = new PatternHitIndex(live.map(idx.patterns), cards)
        filter = idx.fullFilter
        search = new HitCountSearch(idx, cards)
      }
      val combo = search.best(filter)
      explored += search.nodes
      require(search.bestCount > 0, "no combination hits any remaining pattern")
      out += combo
      // Clear the patterns this combination hits.
      val hit = idx.hitsOf(combo, filter)
      var w = 0
      while (w < filter.length) { filter(w) &= ~hit(w); w += 1 }
    }
    Result(out.result(), explored)
  }

  /** Algorithm 4 over the whole tree, reusable across rounds on one index. */
  private final class HitCountSearch(idx: PatternHitIndex, cards: IndexedSeq[Int]) {
    private val d = cards.length
    var nodes  = 0L
    var bestCount = 0
    private val prefix     = new Array[Int](d)
    private val bestPrefix = new Array[Int](d)
    private val filters = Array.tabulate(d)(i => Array.ofDim[Long](cards(i), idx.words))
    private val counts  = Array.tabulate(d)(i => new Array[Int](cards(i)))
    private val orders  = Array.tabulate(d)(i => new Array[Int](cards(i)))

    /** The first combination with the most hits within `filter`. */
    def best(filter: Array[Long]): Vector[Int] = {
      nodes = 0L
      bestCount = 0
      descend(filter, 0)
      bestPrefix.toVector
    }

    private def descend(filter: Array[Long], i: Int): Unit = {
      nodes += 1
      // Only a zero-attribute root is reached as a leaf (d - 1 stops early).
      if (i == d) { bestCount = idx.popcount(filter); return }
      // Each child's filter and bound go into depth i's buffers; a stable
      // insertion sort orders values by descending bound, ties ascending.
      val c = cards(i)
      val fs = filters(i)
      val count = counts(i)
      val order = orders(i)
      var v = 0
      while (v < c) {
        count(v) = idx.andInto(filter, i, v, fs(v))
        var k = v
        while (k > 0 && count(order(k - 1)) < count(v)) { order(k) = order(k - 1); k -= 1 }
        order(k) = v
        v += 1
      }
      var k = 0
      while (k < c) {
        val v = order(k)
        // The popcount of the child's filter is an upper bound on what any
        // completion can hit; prune when it cannot beat the incumbent.
        // (At the last level the bound is exact, so > keeps the first
        // maximum and ties break toward lexicographically earlier combos.)
        if (count(v) > bestCount) {
          prefix(i) = v
          if (i == d - 1) {
            nodes += 1
            bestCount = count(v)
            System.arraycopy(prefix, 0, bestPrefix, 0, d)
          } else descend(fs(v), i + 1)
        }
        k += 1
      }
    }
  }
}
