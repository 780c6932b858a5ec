package repro.core

import scala.util.Random

import org.scalacheck.Gen

/** Random model forests for the ScalaCheck properties over whole models. */
object Forests {

  /** Node ids: small ones, negative ones, and the ends of the `Int` range. */
  private val ids = Gen.frequency(
    4 -> Gen.choose(-3, 40),
    2 -> Gen.choose(Int.MinValue, Int.MaxValue),
    1 -> Gen.oneOf(Int.MaxValue, Int.MinValue, Int.MaxValue - 1, -1))

  private val sats = Gen.frequency(3 -> Gen.oneOf(0.0, 0.3, 0.5, 0.9, 1.0), 2 -> Gen.choose(0.0, 1.0))

  /** Forests of 1–14 nodes with distinct ids, in shuffled order. Each node's
    * parent is −1 or the id of a node before it in generation order, so the
    * links form no cycle; a parent may name a negative id.
    */
  val sound: Gen[TemplateModel] = for {
    n <- Gen.choose(1, 14)
    nodeIds <- Gen.listOfN(n, ids).map(_.distinct)
    parents <- Gen.sequence[List[Int], Int](nodeIds.indices.map { i =>
      if (i == 0) Gen.const(-1) else Gen.frequency(1 -> Gen.const(-1), 3 -> Gen.oneOf(nodeIds.take(i)))
    })
    nodeSats <- Gen.listOfN(nodeIds.size, sats)
    counts <- Gen.listOfN(nodeIds.size, Gen.choose(1L, 1000L))
    temporary <- Gen.listOfN(nodeIds.size, Gen.oneOf(false, true))
    seed <- Gen.long
  } yield new TemplateModel(new Random(seed).shuffle(nodeIds.indices.toVector).map { i =>
    TemplateNode(nodeIds(i), parents(i), GroupKey(1, Nil), Vector("t"), nodeSats(i), nodeSats(i), 0, counts(i),
      temporary(i))
  })
}
