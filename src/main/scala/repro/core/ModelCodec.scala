package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, DataInputStream, DataOutputStream, EOFException}
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}

/** Compact binary model serialization.
  *
  * The paper stores each node's metadata (template text, saturation,
  * parent-child links) in an internal topic and reports per-topic model sizes
  * of a few MB (Table 5). This codec is both the persistence format for the
  * spark-submit jobs and the measuring stick for the Table 5 "Model Size"
  * column — only template texts are stored, never token statistics, which is
  * exactly the storage argument of §4.8.
  */
object ModelCodec {
  private val Magic = 0x42594252 // "BYBR"
  private val Version = 1

  def serialize(model: TemplateModel): Array[Byte] = {
    val bos = new ByteArrayOutputStream(1 << 16)
    val out = new DataOutputStream(bos)
    out.writeInt(Magic)
    out.writeInt(Version)
    out.writeInt(model.nodes.size)
    model.nodes.foreach { n =>
      out.writeInt(n.id)
      out.writeInt(n.parentId)
      out.writeInt(n.depth)
      out.writeLong(n.count)
      out.writeDouble(n.saturation)
      out.writeDouble(n.effectiveSaturation)
      out.writeBoolean(n.temporary)
      out.writeInt(n.groupKey.numTokens)
      out.writeInt(n.groupKey.prefix.size)
      n.groupKey.prefix.foreach(writeStr(out, _))
      out.writeInt(n.template.size)
      n.template.foreach(writeStr(out, _))
    }
    out.flush()
    bos.toByteArray
  }

  /** Decode a model file. Every length is checked against the bytes left
    * before it is used, so a corrupt or hostile file costs at most its own
    * size; any malformed input, trailing bytes included, is an
    * `IllegalArgumentException` starting "corrupt model file:". So are the
    * nodes that [[TemplateModel]]'s constructor rejects: a repeated id, a
    * parent id that is neither −1 nor a loaded id, and a parent cycle.
    */
  def deserialize(bytes: Array[Byte]): TemplateModel = {
    val in = new DataInputStream(new ByteArrayInputStream(bytes))
    try {
      check(in.readInt() == Magic, "not a ByteBrain model file")
      check(in.readInt() == Version, "unsupported model version")
      val n = readLength(in, NodeMinBytes, "node count")
      val nodes = Vector.fill(n) {
        val id = in.readInt(); val parent = in.readInt(); val depth = in.readInt()
        val count = in.readLong(); val sat = in.readDouble(); val eff = in.readDouble()
        val temp = in.readBoolean()
        val numTokens = in.readInt()
        val prefix = Vector.fill(readLength(in, 4, "prefix size"))(readStr(in))
        val template = Vector.fill(readLength(in, 4, "template size"))(readStr(in))
        TemplateNode(id, parent, GroupKey(numTokens, prefix), template, sat, eff, depth, count, temp)
      }
      check(in.available() == 0, s"${in.available()} trailing bytes")
      try new TemplateModel(nodes)
      catch { case e: IllegalArgumentException => throw corrupt(e.getMessage) }
    } catch {
      case _: EOFException => throw corrupt("truncated")
    }
  }

  /** Bytes of a node with an empty prefix and template. */
  private val NodeMinBytes = 4 + 4 + 4 + 8 + 8 + 8 + 1 + 4 + 4 + 4

  private def corrupt(what: String) = new IllegalArgumentException(s"corrupt model file: $what")
  private def check(ok: Boolean, what: => String): Unit = if (!ok) throw corrupt(what)

  /** A count of items of at least `itemBytes` bytes each, checked to fit in
    * the bytes left.
    */
  private def readLength(in: DataInputStream, itemBytes: Int, what: String): Int = {
    val n = in.readInt()
    check(n >= 0 && n <= in.available() / itemBytes, s"$what $n with ${in.available()} bytes left")
    n
  }

  def sizeInBytes(model: TemplateModel): Long = serialize(model).length.toLong

  def save(model: TemplateModel, path: Path): Unit = Files.write(path, serialize(model))
  def load(path: Path): TemplateModel = deserialize(Files.readAllBytes(path))

  private def writeStr(out: DataOutputStream, s: String): Unit = {
    val b = s.getBytes(StandardCharsets.UTF_8)
    out.writeInt(b.length); out.write(b)
  }
  private def readStr(in: DataInputStream): String = {
    val b = new Array[Byte](readLength(in, 1, "string length"))
    in.readFully(b)
    new String(b, StandardCharsets.UTF_8)
  }
}
