package repro.core

import java.nio.ByteBuffer
import java.nio.file.Files
import org.scalacheck.{Arbitrary, Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.logdata.Datasets

class ModelCodecSpec extends AnyFunSuite {
  private val W = CommonVariables.Wildcard

  private def node(id: Int, parent: Int, tpl: Seq[String], sat: Double, depth: Int): TemplateNode =
    TemplateNode(id, parent, GroupKey(tpl.size, tpl.take(1)), tpl.toIndexedSeq, sat,
      math.min(1.0, sat + 0.01), depth, id * 3L, temporary = id % 2 == 0)

  private val model = new TemplateModel(Vector(
    node(0, -1, Seq("a", W, "c"), 0.5, 0),
    node(1, 0, Seq("a", "b", "c"), 1.0, 1),
    node(2, -1, Seq("uni", "код", "日志"), 0.9, 0),
  ))

  test("serialize/deserialize roundtrip preserves every field") {
    val back = ModelCodec.deserialize(ModelCodec.serialize(model))
    assert(back.nodes == model.nodes)
  }

  test("roundtrip via file") {
    val f = Files.createTempFile("model", ".bin")
    try {
      ModelCodec.save(model, f)
      assert(ModelCodec.load(f).nodes == model.nodes)
    } finally Files.delete(f)
  }

  test("empty model roundtrips") {
    val back = ModelCodec.deserialize(ModelCodec.serialize(TemplateModel.empty))
    assert(back.size == 0)
  }

  test("sizeInBytes equals serialized length and grows with nodes") {
    assert(ModelCodec.sizeInBytes(model) == ModelCodec.serialize(model).length.toLong)
    assert(ModelCodec.sizeInBytes(model) > ModelCodec.sizeInBytes(TemplateModel.empty))
  }

  test("garbage input is rejected") {
    assertThrows[IllegalArgumentException](ModelCodec.deserialize(Array[Byte](1, 2, 3, 4, 5, 6, 7, 8)))
  }

  private val trained: Array[Byte] =
    ModelCodec.serialize(ByteBrain.trainLocal(Datasets.loghub("Linux").lines, ByteBrainConfig(), parallelism = 1))

  /** `bytes` with the big-endian int at `offset` replaced. */
  private def withInt(bytes: Array[Byte], offset: Int, v: Int): Array[Byte] = {
    val b = bytes.clone()
    ByteBuffer.wrap(b).putInt(offset, v)
    b
  }

  private def corruptMessage(bytes: Array[Byte]): Option[String] =
    try { ModelCodec.deserialize(bytes); None }
    catch { case e: IllegalArgumentException if e.getMessage.startsWith("corrupt model file: ") => Some(e.getMessage) }

  test("a corrupt length is rejected before anything is allocated for it") {
    val header = 8 // magic, version
    val firstNode = header + 4
    val prefixSize = firstNode + 4 + 4 + 4 + 8 + 8 + 8 + 1 + 4
    val firstString = prefixSize + 4
    assert(ModelCodec.deserialize(trained).size > 10)
    for ((offset, v) <- Seq(header -> -1, header -> Int.MaxValue, prefixSize -> -7, prefixSize -> (1 << 30),
                            firstString -> -1, firstString -> Int.MaxValue))
      assert(corruptMessage(withInt(trained, offset, v)).isDefined, s"int $v at $offset")
  }

  test("a negative node count is not an empty model") {
    val empty = ModelCodec.serialize(TemplateModel.empty)
    assert(ModelCodec.deserialize(empty).size == 0)
    assert(corruptMessage(withInt(empty, 8, -3)).isDefined)
  }

  test("trailing bytes, a truncation and a duplicate id are corrupt model files") {
    assert(corruptMessage(trained :+ 0.toByte).exists(_.contains("trailing")))
    assert(corruptMessage(trained.dropRight(1)).isDefined)
    assert(corruptMessage(trained.take(10)).exists(_.contains("truncated")))
    val one = ModelCodec.serialize(new TemplateModel(model.nodes.take(1)))
    val sameNodeTwice = withInt(one, 8, 2) ++ one.drop(12)
    assert(corruptMessage(sameNodeTwice).exists(_.contains("duplicate node ids")))
  }

  test("any byte string decodes or is a corrupt model file: random, truncated, bit-flipped, extended (ScalaCheck)") {
    val byteArrays = Gen.containerOf[Array, Byte](Arbitrary.arbitrary[Byte])
    val inputs = Gen.frequency(
      1 -> byteArrays,
      1 -> byteArrays.map(trained.take(12) ++ _), // past the header checks
      2 -> Gen.choose(0, trained.length - 1).map(trained.take),
      4 -> Gen.choose(0, trained.length * 8 - 1).map { bit =>
        val b = trained.clone()
        b(bit / 8) = (b(bit / 8) ^ (1 << (bit % 8))).toByte
        b
      },
      1 -> byteArrays.suchThat(_.nonEmpty).map(trained ++ _),
    )
    val prop = Prop.forAll(inputs) { bytes =>
      val shorter = bytes.length < trained.length && java.util.Arrays.equals(bytes, trained.take(bytes.length))
      val longer = bytes.length > trained.length && java.util.Arrays.equals(bytes.take(trained.length), trained)
      val rejected = corruptMessage(bytes).isDefined // any other exception fails the property
      (!(shorter || longer) || rejected) :| s"${bytes.length} bytes, a strict prefix or extension, decoded"
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(3000).withInitialSeed(Seed(21L))
    val result = Test.check(params, prop)
    assert(result.passed, result.status.toString)
  }

  /** Byte offset of every node's parent id in `bytes`, a well-formed file. */
  private def parentOffsets(bytes: Array[Byte]): IndexedSeq[Int] = {
    val b = ByteBuffer.wrap(bytes)
    var at = 12 // magic, version, node count
    def skipStrings(): Unit = {
      val k = b.getInt(at); at += 4
      (0 until k).foreach(_ => at += 4 + b.getInt(at))
    }
    (0 until b.getInt(8)).map { _ =>
      val parent = at + 4
      at += 4 + 4 + 4 + 8 + 8 + 8 + 1 + 4 // id … numTokens
      skipStrings() // prefix
      skipStrings() // template
      parent
    }
  }

  /** Whether every parent id of `nodes` is −1 or one of their ids and every
    * parent chain reaches a root, by walking each chain for at most
    * `nodes.size` steps.
    */
  private def parentsSound(nodes: IndexedSeq[TemplateNode]): Boolean = {
    val parentOf = nodes.map(n => n.id -> n.parentId).toMap
    nodes.forall(n => n.parentId == -1 || parentOf.contains(n.parentId)) &&
      nodes.forall { n =>
        Iterator.iterate(n.id)(parentOf).take(nodes.size + 1).contains(-1)
      }
  }

  test("a dangling parent id or a parent cycle is a corrupt model file") {
    def bytesOf(parents: (Int, Int)*): Array[Byte] = ModelCodec.serialize(new TemplateModel(
      parents.map { case (id, parent) => node(id, parent, Seq("t", id.toString), 1.0, 0) }.toVector))
    assert(ModelCodec.deserialize(bytesOf(0 -> -1, 1 -> 0, 2 -> 1)).size == 3)
    assert(corruptMessage(bytesOf(0 -> -1, 1 -> 7)).exists(_.contains("node 1 has unknown parent id 7")))
    assert(corruptMessage(bytesOf(0 -> -5)).exists(_.contains("unknown parent id -5")))
    assert(corruptMessage(bytesOf(0 -> 0)).exists(_.contains("parent cycle")))
    assert(corruptMessage(bytesOf(0 -> -1, 1 -> 3, 2 -> 1, 3 -> 2)).exists(_.contains("parent cycle")))
    assert(corruptMessage(bytesOf(5 -> 6, 6 -> 5, 0 -> -1)).exists(_.contains("parent cycle")))
  }

  test("rewired parent ids decode exactly when every chain reaches a root (ScalaCheck)") {
    val nodes = ModelCodec.deserialize(trained).nodes
    val offsets = parentOffsets(trained)
    val ids = nodes.map(_.id)
    val parentIds = Gen.frequency(
      1 -> Gen.const(-1),
      4 -> Gen.oneOf(ids),
      1 -> Gen.choose(-3, ids.max + 3),
      1 -> Gen.choose(Int.MinValue, Int.MaxValue),
    )
    val rewirings = Gen.choose(1, 3).flatMap(k => Gen.listOfN(k, Gen.zip(Gen.choose(0, nodes.size - 1), parentIds)))
    val prop = Prop.forAll(rewirings) { rewired =>
      val bytes = rewired.foldLeft(trained) { case (b, (i, parent)) => withInt(b, offsets(i), parent) }
      val expected = rewired.foldLeft(nodes) { case (ns, (i, parent)) => ns.updated(i, ns(i).copy(parentId = parent)) }
      val sound = parentsSound(expected)
      corruptMessage(bytes) match {
        case None      => (sound && ModelCodec.deserialize(bytes).nodes == expected) :| s"$rewired decoded"
        case Some(msg) => !sound :| s"$rewired rejected: $msg"
      }
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(500).withInitialSeed(Seed(23L))
    val result = Test.check(params, prop)
    assert(result.passed, result.status.toString)
  }

  test("trained, merged and temporary-bearing models round-trip") {
    val c = ByteBrainConfig()
    val lines = Datasets.loghub("OpenSSH").lines
    val (older, newer) = lines.splitAt(lines.size / 2)
    val oldModel = ByteBrain.trainLocal(older, c, parallelism = 1)
    val merged = Merge.merge(oldModel, ByteBrain.trainLocal(newer, c, parallelism = 1), c)
    val session = new OnlineMatcher(oldModel)
    (Seq("novel line never trained", "another novel line here x") ++ newer.take(200))
      .foreach(l => session.matchOrInsert(ByteBrain.preprocess(l, c, new Tokenizer(c.tokenizerRegex))))
    val withTemporaries = session.modelWithTemporaries
    assert(withTemporaries.nodes.exists(_.temporary))
    Seq(oldModel, merged, withTemporaries, Merge.merge(withTemporaries, merged, c)).foreach { m =>
      assert(ModelCodec.deserialize(ModelCodec.serialize(m)).nodes == m.nodes)
    }
  }

  test("UTF-8 template tokens survive") {
    val back = ModelCodec.deserialize(ModelCodec.serialize(model))
    assert(back.byId(2).template == IndexedSeq("uni", "код", "日志"))
  }

  test("model size stores only templates — much smaller than raw text") {
    // a model over k templates must be ~O(k * template bytes), not O(logs)
    val big = new TemplateModel((0 until 100).map(i =>
      node(i, -1, Seq("tpl", i.toString, W), 1.0, 0)).toVector)
    assert(ModelCodec.sizeInBytes(big) < 100 * 200)
  }
}
