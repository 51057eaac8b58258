package covbench

import repro.core.{CompressedData, Pattern}

/** Output checks run after every pass. Each returns the failures it found;
  * none of them uses [[repro.core.InvertedIndex]], so they do not share a
  * defect with the searches they check.
  */
object Checks {

  /** The rows the generator was asked for all reached the compressed data. */
  def total(data: CompressedData, n: Long): Seq[String] =
    if (data.total == n) Nil else Seq(s"data.total ${data.total} != n $n")

  /** Every algorithm run on the workload returns the same MUP set. */
  def agree(reference: String, mups: Set[Pattern], others: Seq[(String, Set[Pattern])]): Seq[String] =
    others.collect {
      case (name, got) if got != mups =>
        s"$name returned ${got.size} MUPs (${(got -- mups).size} extra, " +
          s"${(mups -- got).size} missing) against $reference's ${mups.size}"
    }

  /** `k` evenly spaced elements of `xs` in a fixed order, so every pass and
    * every run at one seed checks the same patterns.
    */
  def sample(xs: Iterable[Pattern], k: Int): Seq[Pattern] = {
    val sorted = xs.toVector.sortBy(_.elems)(Ordering.Implicits.seqOrdering)
    if (sorted.length <= k) sorted
    else (0 until k).map(i => sorted(i * sorted.length / k))
  }

  /** Definition 5 under the scan oracle: a sampled MUP is uncovered, within
    * the level cap, and each of its parents is covered.
    */
  def definition5(data: CompressedData, tau: Long, maxLevel: Int, mups: Set[Pattern], k: Int): Seq[String] =
    sample(mups, k).flatMap { p =>
      val own =
        if (data.coverageScan(p) >= tau) Seq(s"MUP $p is covered")
        else if (p.level > maxLevel) Seq(s"MUP $p is above level cap $maxLevel")
        else Nil
      own ++ p.parents.collect { case q if data.coverageScan(q) < tau => s"parent $q of MUP $p is uncovered" }
    }

  /** A sample of M_λ lies at level λ and is uncovered under the scan oracle. */
  def expansion(data: CompressedData, tau: Long, lambda: Int, patterns: Set[Pattern], k: Int): Seq[String] =
    sample(patterns, k).collect {
      case p if p.level != lambda             => s"M_lambda pattern $p is not at level $lambda"
      case p if data.coverageScan(p) >= tau => s"M_lambda pattern $p is covered"
    }

  /** Every pattern of M_λ is matched by some combination GREEDY chose. */
  def hitting(patterns: Iterable[Pattern], combos: Seq[Vector[Int]]): Seq[String] = {
    val missed = patterns.count(p => !combos.exists(p.matches))
    if (missed == 0) Nil else Seq(s"$missed M_lambda patterns are hit by no GREEDY combination")
  }

  /** The counts measured on the unmodified program, at the default seed. */
  def expected(e: Expected, mups: Int, patterns: Int, combos: Int): Seq[String] =
    Seq(("MUPs", e.mups, mups), ("M_lambda patterns", e.patterns, patterns), ("GREEDY combinations", e.combos, combos))
      .collect { case (what, want, got) if want != got => s"$what: expected $want at the default seed, got $got" }
}
