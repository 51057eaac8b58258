package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Incremental MUP-dominance index (paper Appendix B) vs direct checks. */
class MupDominanceIndexSpec extends AnyFunSuite {

  test("empty index dominates nothing and is dominated by nothing") {
    val idx = new MupDominanceIndex(Vector(2, 2, 2))
    assert(!idx.dominatesSome(Pattern.parse("XXX")))
    assert(!idx.dominatedBySome(Pattern.parse("010")))
  }

  test("descendants of an indexed MUP are dominated") {
    val idx = new MupDominanceIndex(Vector(2, 2, 2))
    idx.add(Pattern.parse("1XX"))
    assert(idx.dominatedBySome(Pattern.parse("10X")))
    assert(idx.dominatedBySome(Pattern.parse("111")))
    assert(!idx.dominatedBySome(Pattern.parse("0XX")))
    assert(!idx.dominatedBySome(Pattern.parse("X1X")))
  }

  test("ancestors of an indexed MUP dominate it") {
    val idx = new MupDominanceIndex(Vector(2, 2, 2))
    idx.add(Pattern.parse("10X"))
    assert(idx.dominatesSome(Pattern.parse("1XX")))
    assert(idx.dominatesSome(Pattern.parse("X0X")))
    assert(idx.dominatesSome(Pattern.parse("XXX")))
    assert(!idx.dominatesSome(Pattern.parse("11X")))
    assert(!idx.dominatesSome(Pattern.parse("101")))
  }

  test("a pattern equal to an indexed MUP neither dominates nor is dominated") {
    val idx = new MupDominanceIndex(Vector(2, 2, 2))
    idx.add(Pattern.parse("1X0"))
    assert(!idx.dominatesSome(Pattern.parse("1X0")))
    assert(!idx.dominatedBySome(Pattern.parse("1X0")))
  }

  test("matches brute-force dominance over random MUP sets (crosses the 64-bit word boundary)") {
    val rnd = new Random(4242L)
    val cards = Vector(2, 3, 2, 2, 4, 3)
    val all = Pattern.allPatterns(cards).toVector
    val idx = new MupDominanceIndex(cards)
    val added = scala.collection.mutable.ArrayBuffer.empty[Pattern]
    // add 1,200 random patterns so the index spans 19 Long words and grows
    // its vectors through several capacity doublings
    for (_ <- 0 until 1200) {
      val p = all(rnd.nextInt(all.size))
      idx.add(p)
      added += p
      // verify a handful of probes after each add
      for (_ <- 0 until 5) {
        val q = all(rnd.nextInt(all.size))
        val expDominates = added.exists(m => q.dominates(m))
        val expDominated = added.exists(m => m.dominates(q))
        assert(idx.dominatesSome(q) == expDominates, s"dominatesSome($q) after ${added.size}")
        assert(idx.dominatedBySome(q) == expDominated, s"dominatedBySome($q) after ${added.size}")
      }
    }
    assert(idx.size == 1200)
  }
}
